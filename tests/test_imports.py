"""Import hygiene of the package: no unused imports, no dangling exports."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import types

import pytest

import tricloud
from tricloud import codec

SRC = pathlib.Path(tricloud.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = pathlib.Path(__file__).parent.parent


def _imported_names(tree):
    """(name bound in the module, line) of every import, module-level or local."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module != "__future__":
                    yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _reads_one_byte(call):
    return (len(call.args) == 1 and not call.keywords
            and isinstance(call.args[0], ast.Constant) and call.args[0].value == 1)


def _calls_outside(homes, attr, allowed=lambda call: False):
    """file:line of every ``<object>.<attr>(...)`` call in the package that is
    neither inside a function named in ``homes`` ("module.function") nor
    ``allowed``."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node)
                  for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and f"{path.stem}.{func.name}" in homes
                  for node in ast.walk(func)}
        stray += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == attr and id(node) not in exempt
                  and not allowed(node)]
    return stray


def test_every_declared_length_is_read_through_read_exact():
    # core._read_exact reads a declared length in bounded chunks; any other
    # read takes one byte (the trailer checks)
    stray = _calls_outside(("core._read_exact",), "read", _reads_one_byte)
    assert not stray, f"reads outside core._read_exact: {stray}"


def test_every_header_is_unpacked_through_read_struct():
    # core._read_struct takes the byte count from the layout; unpack_from on
    # bytes already in memory is left alone
    stray = _calls_outside(("core._read_struct",), "unpack")
    assert not stray, f"struct.unpack outside core._read_struct: {stray}"


def _unstable(call):
    return not {"stable", "mergesort"} & {getattr(arg, "value", None)
                                          for arg in call.args + [kw.value for kw in call.keywords]}


def test_integer_keys_are_ordered_through_sorted_rows():
    # geom._sorted_rows is the one stable integer sort (its argsort is the
    # fallback for keys too wide to pack)
    homes = ("geom._sorted_rows",)
    stray = _calls_outside(homes, "lexsort") + _calls_outside(homes, "argsort", _unstable)
    assert not stray, f"stable sorts outside geom._sorted_rows: {stray}"


def test_frame_records_are_laid_out_once():
    # the record writer and parser loop over the layout each payload class
    # declares, and the bit counts are derived from it in one place
    payloads = (codec.IntraPayload, codec.PredictedPayload)
    layout = {cls.__name__ for cls in payloads} | {
        field.name for cls in payloads for field in dataclasses.fields(cls)}
    tree = ast.parse((SRC / "codec.py").read_text(encoding="utf-8"))
    named = {f"{func.name} names {name}"
             for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef)
             and func.name in ("serialize_gof_record", "parse_gof_record")
             for node in ast.walk(func)
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "arg", None), getattr(node, "value", None))
             if isinstance(name, str) and name in layout}
    assert not named, f"the record layout is spelled out by hand: {sorted(named)}"
    definitions = [f"{path.name}:{node.lineno}"
                   for path in sorted(SRC.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.FunctionDef)
                   and node.name in ("geometry_bits", "color_bits")]
    assert len(definitions) == 2, f"bit counts defined more than once: {definitions}"


def test_every_dataclass_field_is_read_in_the_package():
    # a field that no module reads as an attribute is state kept for nothing;
    # what the tests read does not count
    reads = {node.attr for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.__name__}.{field.name}"
              for path in MODULES
              for cls in vars(importlib.import_module(f"tricloud.{path.stem}")).values()
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)
              and cls.__module__ == f"tricloud.{path.stem}"
              for field in dataclasses.fields(cls) if field.name not in reads]
    assert not unread, f"dataclass fields nothing in the package reads: {unread}"


def test_reference_state_holds_only_what_the_decoder_reads():
    # both sides build the same state, so a field the decode path never reads
    # is encoder-only state the decoder builds for nothing
    tree = ast.parse((SRC / "codec.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    decode_path = [node for node in tree.body + classes["FrameBuffer"].body
                   if isinstance(node, ast.FunctionDef) and node.name in (
                       "decode_reference", "decode_predicted", "advance", "frame")]
    assert len(decode_path) == 4
    reads = {node.attr for func in decode_path for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [field.name for field in dataclasses.fields(codec.ReferenceState)]
    unread = [name for name in fields if name not in reads]
    assert not unread, f"ReferenceState fields the decode path never reads: {unread}"


def test_cli_runs_every_stage_one_frame_at_a_time():
    # encode, decode and eval stream frames in one process: no worker pool,
    # and none of the functions that hold a whole GOF
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    pools = [m for m in modules if m.split(".")[0] in ("concurrent", "multiprocessing")]
    assert not pools, f"cli.py imports a worker pool: {pools}"
    names = {name for name, _ in _imported_names(tree)} | {
        getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
    whole = names & {"read_gof_file", "read_gof", "decode_gof", "encode_gof"}
    assert not whole, f"cli.py binds functions that hold a whole GOF: {sorted(whole)}"


def test_cli_binds_no_private_name_of_another_module():
    # the front end reads flags and writes reports; what a metric, a record
    # or a check is stays behind each module's public names
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [f"{'.' * node.level}{node.module}.{alias.name} (line {node.lineno})"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("tricloud"))
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"cli.py binds private names of tricloud modules: {private}"


# (file, function, module) of the function-level imports of tricloud modules
# that stay, each for its reason
_FUNCTION_LEVEL_IMPORTS = {
    # codec imports octree at module level, so the baseline's use of the
    # codec's plane coding waits for the call
    ("octree.py", "baseline_encode_pointcloud", "codec"),
    ("octree.py", "baseline_decode_pointcloud", "codec"),
}


def _tricloud_imports(func):
    """(line, module) of every import of a tricloud module inside ``func``."""
    for node in ast.walk(func):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("tricloud")):
            yield node.lineno, (node.module or "").split(".")[-1]
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[-1]) for alias in node.names
                        if alias.name.split(".")[0] == "tricloud")


def test_no_function_level_imports():
    # an import inside a function hides a dependency, or a cycle, from the
    # module header; only the named exceptions above may do it
    stray = [f"{path.name}:{line} in {func.name}"
             for path in MODULES
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, ast.FunctionDef)
             for line, module in _tricloud_imports(func)
             if (path.name, func.name, module) not in _FUNCTION_LEVEL_IMPORTS]
    assert not stray, f"functions that import tricloud modules: {stray}"


def test_every_exported_name_resolves():
    missing = [name for name in tricloud.__all__ if not hasattr(tricloud, name)]
    assert not missing, f"tricloud.__all__ names what the package does not bind: {missing}"


# exported without a caller: it shows that the octree baseline's rate is the
# rate of a stream that decodes, which the unit tests check
_EXPORTED_FOR_TESTS = {"baseline_decode_pointcloud"}


def test_every_exported_name_has_a_caller():
    # the package's callers are its own modules, the demos, the benchmark and
    # the acceptance gate; a name only the unit tests reach is not surface.
    # Names inside strings (such as the tracer's sites) do not count.
    callers = [*MODULES, *sorted((ROOT / "demos").rglob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= {name for name, _ in _imported_names(tree)} | _used_names(tree)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [name for name in tricloud.__all__
              if not isinstance(getattr(tricloud, name), types.ModuleType)
              and name not in used | _EXPORTED_FOR_TESTS]
    assert not unused, f"tricloud exports names only unit tests use: {unused}"


def test_oracles_bind_no_private_callable_of_the_package():
    # an oracle that calls the library's own helpers checks them against
    # themselves; frozen constants such as entropy._L may be shared
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    shared = [f"{node.module}.{alias.name}"
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module.startswith("tricloud")
              for alias in node.names
              if alias.name.startswith("_")
              and callable(getattr(importlib.import_module(node.module), alias.name))]
    assert not shared, f"tests/oracles.py binds private callables of tricloud: {shared}"


# the tracer sites that bind nothing today: the library stopped importing
# these names where perfbench/tracer.py looks for them
_UNBOUND_TRACER_SITES = {
    "cli.projection_psnr", "cli.psnr_triangle_cloud", "cli.read_gof_file",
    "cli.refined_interpolated_cloud", "cli.validate_gof", "codec.transform_weights",
    "metrics.morton_decode", "metrics.refine_interpolate",
    "metrics.refined_interpolated_cloud",
}


def test_tracer_sites_unbound_are_no_more_than_today():
    # the benchmark's traced pass wraps module attributes by name; a function
    # moved out of the module that binds it blinds that pass without failing it
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.installed(tracer.Tracer()) as traced:
        skipped = set(traced.skipped)
    assert skipped <= _UNBOUND_TRACER_SITES, \
        f"tracer sites that no longer bind: {sorted(skipped - _UNBOUND_TRACER_SITES)}"


def test_cli_imports_no_network_or_mail_modules():
    # every CLI process imports cli and svgplot; xml.sax.saxutils would pull
    # in urllib.request, ssl and email, where html.escape needs none of them
    heavy = ("xml.sax", "urllib.request", "ssl", "email")
    code = (f"import sys, tricloud.cli, tricloud.svgplot; "
            f"print(*[m for m in {heavy!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [], f"cli imports {result.stdout.split()}"
