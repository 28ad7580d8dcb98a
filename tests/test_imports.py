"""Tooling guards: no package or test module imports a name it never
references, no package module imports scipy or does complex or dense
linear algebra (no complex dtype or literal, kron or linalg), the package's ``__all__``
lists exactly the public names it binds, one sampler builds every
TrialTable and one every PredictionTable, only those two draw branches
trial by trial, one routine builds every binomial pmf, one function forms
the per-trial CHSH term, one helper opens every process pool and no
command imports concurrent.futures at start-up, one writer
turns columns into CSV text and one reader CSV text into columns, every
record file is opened as bytes and its lines ended by one function, each
record sampler is one named chunk stream, no module joins a record stream
into one table, and every name the benchmark tracer patches exists.  The
command line, alone
in the package, sets numpy's BLAS threading, before anything loads numpy,
and ``import blgisim`` loads no numpy."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blgisim
from blgisim import audit, prediction, records, trials

PACKAGE = sorted(Path(blgisim.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_references_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - referenced) == []


def test_all_lists_each_public_name_bound_in_the_package_once():
    for name in blgisim.__all__:  # names bind on first use; an unresolvable one fails here
        getattr(blgisim, name)
    public = {
        name for name, value in vars(blgisim).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(blgisim.__all__) == len(set(blgisim.__all__))
    assert set(blgisim.__all__) == public | {"__version__"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_does_not_import_scipy(path):
    # scipy is a test-only dependency (the oracle for ndtri and bdtr)
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


def _dense_complex_sites(path) -> list:
    """(line, what) of every complex name, dtype string or imaginary literal, and every kron or linalg, in a file."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", getattr(node, "attr", None))
        value = getattr(node, "value", None) if isinstance(node, ast.Constant) else None
        if isinstance(value, complex) or (isinstance(value, str) and value.startswith("complex")):
            sites.append((node.lineno, repr(value)))
        elif isinstance(name, str) and (name.startswith("complex") or name in ("kron", "linalg")):
            sites.append((node.lineno, name))
    return sites


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_does_no_complex_linear_algebra(path):
    # the branch law is a real bilinear form in Pauli coefficients, so no
    # CLI path needs complex numbers; the dense complex-state Born rule is
    # the oracle in tests/reference.py
    assert _dense_complex_sites(path) == []


def _call_sites(name: str) -> list:
    """(file name, line) of every call of `name` in the package."""
    return [
        (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def _inside(function, sites) -> list:
    """(file name, whether the line is inside function) per call site."""
    lines, first = inspect.getsourcelines(function)
    return [(name, first <= line < first + len(lines)) for name, line in sites]


def test_one_sampler_builds_every_trial_table():
    # every source is a branch law that trials._simulate_range samples; a
    # second TrialTable(...) call site would be a second trial engine
    assert _inside(trials._simulate_range, _call_sites("TrialTable")) == [("trials.py", True)]


def test_one_sampler_builds_every_prediction_table():
    # the readers build tables through their class, never by name
    assert _inside(prediction._predict_range, _call_sites("PredictionTable")) == [("prediction.py", True)]


def test_one_routine_builds_every_binomial_pmf():
    # trials._binomial_window alone runs the ratio recurrence (the package's
    # only cumprod); predict's count windows (prediction._count_cdfs) and
    # the branch counts (trials._binomial_draw, for _branch_counts alone)
    # sum it, and trials._invert_window alone inverts a window: a second
    # call site would be a second binomial law or a second table shape.
    # The branch counts serve the sweep (trials._count_moments) and the
    # after-protocol Bell check (prediction.post_protocol_chsh), each of
    # which draws its own window.  The other searchsorted calls invert a
    # branch law (sample_branches) and find fields in a record file
    # (records._points).
    assert _inside(trials._binomial_window, _call_sites("cumprod")) == [("trials.py", True)] * 2
    windows = _call_sites("_binomial_window")
    assert len(windows) == 2 and _outside(windows, prediction._count_cdfs.__wrapped__, trials._binomial_draw) == []
    assert _outside(_call_sites("searchsorted"), trials._invert_window, trials.sample_branches, records._points) == []
    inversions = _call_sites("_invert_window")
    assert len(inversions) == 3 and _outside(inversions, prediction._readout_counts, trials._binomial_draw) == []
    assert _inside(trials._branch_counts, _call_sites("_binomial_draw")) == [("trials.py", True)]
    counts = _call_sites("_branch_counts")
    assert len(counts) == 2 and _outside(counts, trials._count_moments, prediction.post_protocol_chsh) == []


def test_one_function_forms_the_chsh_term():
    # trials._chsh_terms forms the per-trial term x = a1 (b1 + b2) + a2 (b1 - b2)
    # for the estimates (_block_moments, _count_moments) and for the
    # binary-bound self-test (exhaustive_verify, chsh_bound_check), so
    # verify-theorem checks the term behind every verdict; no package module
    # names the scalar route, whose reference lives in tests/reference.py
    sites = _call_sites("_chsh_terms")
    functions = (trials._block_moments, trials._count_moments, audit.exhaustive_verify, audit.chsh_bound_check)
    assert len(sites) == 4 and [len(_outside(sites, function)) for function in functions] == [3] * 4
    names = {getattr(node, key, None) for _, node in _nodes(ast.AST) for key in ("name", "asname", "id", "attr")}
    assert not {"BinaryTuple", "as_binary_tuple", "per_trial_term"} & (names | set(blgisim.__all__))


def test_only_the_record_samplers_draw_branches_trial_by_trial():
    # a statistic that writes no record draws branch counts (_branch_counts),
    # not one branch per trial: sample_branches serves the two samplers of
    # record tables alone
    sites = _call_sites("sample_branches")
    assert len(sites) == 2 and _outside(sites, trials._simulate_range, prediction._predict_range) == []


def test_one_helper_opens_every_process_pool():
    # simulate and predict pool their chunks, audit its ranges, all
    # through trials._pool_map; a second call site would be a second pool path
    assert _inside(trials._pool_map, _call_sites("ProcessPoolExecutor")) == [("trials.py", True)]


def test_each_sampler_is_one_named_stream():
    # trials.chunk_stream alone cuts the chunks, so the chunk size is named
    # in trials.py alone; the command takes each sampler's stream by its
    # public name (trial_chunks, prediction_chunks), not prediction's parts
    chunk_sites = [
        (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "id", getattr(node, "attr", None)) == "_TRIAL_CHUNK"
        or (isinstance(node, ast.alias) and node.name == "_TRIAL_CHUNK")
    ]
    assert chunk_sites and {name for name, _ in chunk_sites} == {"trials.py"}
    cli = ast.parse(Path(blgisim.__file__).with_name("cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(cli)
        if isinstance(node, ast.ImportFrom) and node.module == "prediction"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _compares_a_block_scalar(function) -> bool:
    """Whether function compares a getattr of something other than self,
    or loops over a table class's scalars and builds a set."""
    compares = any(
        isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
        and getattr(call.args[0], "id", None) != "self"
        for node in ast.walk(function) if isinstance(node, ast.Compare)
        for call in ast.walk(node)
    )
    loops = any(
        isinstance(node, (ast.For, ast.comprehension)) and getattr(node.iter, "attr", None) == "scalars"
        for node in ast.walk(function)
    )
    sets = any(
        isinstance(node, ast.SetComp) or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "set")
        for node in ast.walk(function)
    )
    return compares or (loops and sets)


def test_one_check_makes_a_table_or_stream_into_one_experiment_s_blocks():
    # trials._one_experiment alone turns an argument into record blocks (a
    # table is a stream of one block) and checks that they are one
    # experiment; the folds, the writers and the audit's table route pass
    # their argument through it.  A second such check would be a second
    # wording of the one rule that every verdict rests on
    one_tuples = [
        (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.IfExp)
        and any(isinstance(side, ast.Tuple) and len(side.elts) == 1 for side in (node.body, node.orelse))
    ]
    assert len(one_tuples) == 1 and _outside(one_tuples, trials._one_experiment) == []
    checks = [
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and _compares_a_block_scalar(node)
    ]
    assert checks == [("trials.py", "_one_experiment")]
    sites = _call_sites("_one_experiment")
    callers = (trials.ChshFold, prediction.PredictionFold, audit.decomposition_test, records._emit_table)
    assert len(sites) == 4 and all(len(_outside(sites, caller)) == 3 for caller in callers)
    # ChshMoments.report is the one check of at least 2 records
    assert not hasattr(audit, "_check_count")
    assert [path.name for path in MODULES if "need at least 2 records" in path.read_text()] == ["trials.py"]


def _fresh(code: str, **env) -> str:
    """stdout of `code` in a fresh interpreter whose environment lacks
    OPENBLAS_NUM_THREADS (importing blgisim.cli sets it in this process)
    and adds env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = {**base, "PYTHONPATH": str(Path(blgisim.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_start_up_imports_no_process_pool():
    # concurrent.futures takes about 20 ms to import, so trials._pool_map
    # imports it when it opens a pool, not every command at start-up
    code = "import sys, blgisim.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    assert _fresh(code) == "[]\n"


def test_sweep_at_two_workers_imports_no_process_pool(tmp_path):
    # its grid points run in the command's process at any --workers, so a
    # sweep loads neither the pool nor multiprocessing
    argv = ["sweep", "--v-grid", "0.2,0.9", "--trials", "4000", "--out", str(tmp_path / "s.csv"), "--workers", "2"]
    code = (
        f"import sys, blgisim.cli; assert blgisim.cli.main({argv!r}) == 0;"
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    assert _fresh(code).splitlines()[-1] == "[]"  # after the command's one-line summary


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task to count threads")
def test_command_line_starts_no_blas_thread():
    # numpy's bundled OpenBLAS starts a pool thread that spins while idle;
    # the command line loads numpy with one BLAS thread, so no second thread
    code = "import os, blgisim.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code) == "1 1\n"


def test_command_line_keeps_the_callers_blas_threading():
    code = "import os, blgisim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == "2\n"


def test_package_import_loads_no_numpy_and_binds_names_on_use():
    code = (
        "import sys, blgisim; print('numpy' in sys.modules);"
        "from blgisim import *; print(all(name in globals() for name in blgisim.__all__));"
        "print(blgisim.trials.__name__)"
    )
    assert _fresh(code) == "False\nTrue\nblgisim.trials\n"


def test_only_the_command_line_sets_the_environment_and_before_numpy_loads():
    # a library leaves its caller's environment alone; in cli.py the BLAS
    # setting must precede numpy and every package module, which load numpy
    environ = [
        (path.name, node.lineno)
        for path in PACKAGE
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "attr", getattr(node, "id", None)) == "environ"
    ]
    assert environ and {name for name, _ in environ} == {"cli.py"}
    body = ast.parse(Path(blgisim.__file__).with_name("cli.py").read_text()).body
    (setting,) = [
        i
        for i, node in enumerate(body)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", None) == "setdefault"
        and ast.literal_eval(node.value.args[0]) == "OPENBLAS_NUM_THREADS"
    ]
    loads_numpy = [
        i
        for i, node in enumerate(body)
        if (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "numpy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "numpy"))
    ]
    assert loads_numpy and setting < min(loads_numpy)


def _outside(sites, *functions) -> list:
    """The (file name, line) sites that lie in none of functions."""
    spans = []
    for function in functions:
        lines, first = inspect.getsourcelines(function)
        spans.append((Path(inspect.getsourcefile(function)).name, first, first + len(lines)))
    return [(name, line) for name, line in sites if not any(n == name and a <= line < b for n, a, b in spans)]


def _nodes(kind) -> list:
    """(file name, node) of every node of the given AST type in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    return [(name, node) for name, tree in trees.items() for node in ast.walk(tree) if isinstance(node, kind)]


def test_one_writer_turns_columns_into_csv_text():
    # records._rows_text formats the rows of every CSV kind in numpy, and
    # _write_csv writes them; a per-row printf template, or columns turned
    # into lists for a writer, would be a second row path.  A printf format
    # stays only in the header comment and in the fallback for the floats
    # that the fast path does not cover
    assert [(name, node.lineno) for name, node in _nodes(ast.Attribute) if node.attr == "__mod__"] == []
    printf = [
        (name, node.lineno)
        for name, node in _nodes(ast.BinOp)
        if isinstance(node.op, ast.Mod) and isinstance(node.left, ast.Constant)
    ]
    assert printf and _outside(printf, records._comment, records._float_cells) == []
    writes = _call_sites("write") + _call_sites("writelines")
    assert _outside(writes, records._write_csv, records.emit_manifest) == []
    lists = [(name, line) for name, line in _call_sites("tolist") if name == "records.py"]
    assert _outside(lists, records._float_cells, records.read_sweep) == []


def test_one_reader_turns_csv_text_into_columns():
    # records._read_blocks parses the rows of every CSV kind through
    # records._parse_rows, and _parses asks that same kernel about one field
    # to name the field of a bad row; np.loadtxt, or _parse_rows called
    # anywhere else, would be a second grammar for record text
    assert [path.name for path in PACKAGE if "loadtxt" in path.read_text()] == []
    parses = _call_sites("_parse_rows")
    assert len(parses) == 2 and _outside(parses, records._read_blocks, records._parses) == []
    assert _outside(_call_sites("_read_blocks"), records._table_blocks, records.read_sweep) == []


def _text_opens() -> list:
    """(file name, line) of every open() call in records.py whose mode holds no 'b'."""
    sites = []
    for node in ast.walk(ast.parse(Path(records.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if "b" not in (ast.literal_eval(modes[0]) if modes else "r"):
                sites.append(("records.py", node.lineno))
    return sites


def test_every_record_file_is_opened_as_bytes():
    # records._line_ends alone decides where a line of a record file ends;
    # a text-mode open would bring back a second line splitter, universal
    # newlines, so the JSON manifest's reader is the only one
    text = _text_opens()
    assert text and _outside(text, records.read_manifest) == []
    ends = _call_sites("_line_ends")
    assert ends and _outside(ends, records._line_blocks, records._block_cuts) == []


def test_no_module_joins_a_record_stream_into_one_table():
    # each record kind enters and leaves the package as a stream of blocks
    # (trial_chunks, prediction_chunks, read_record_blocks and
    # read_prediction_blocks); the whole-table joins live in tests/reference.py
    joins = {"simulate_trials", "prediction_batch", "read_records", "read_predictions", "_read_table", "_filled"}
    assert [(name, node.name) for name, node in _nodes(ast.FunctionDef) if node.name in joins] == []


# audit reads a record file through read_record_blocks, simulate folds the
# chunks of trials.trial_chunks as they are sampled, sweep folds no trials
# but its points' branch counts (trials._count_moments), and predict counts
# and writes the chunks of prediction.prediction_chunks as they are
# sampled; the package defines no read_records, simulate_trials or
# prediction_batch at all.  benchmarks/tracing.py belongs to the benchmark,
# so these four names stay stale, and their spans read 0, until the tracer
# stops patching names (ROADMAP item 25)
STALE_TRACER_TARGETS = {
    ("cli", "estimate_chsh"),
    ("cli", "prediction_batch"),
    ("cli", "read_records"),
    ("cli", "simulate_trials"),
}


def test_every_tracer_target_exists():
    # benchmarks/tracing.py patches each (module, attribute) of TARGETS and
    # skips, with a warning, one that is missing, so its per-layer metric
    # silently reads 0; the file is read, not imported
    tracing = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    (targets,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    ]
    missing = {
        (module, attr)
        for module, attr, _ in targets
        if not hasattr(importlib.import_module(f"blgisim.{module}"), attr)
    }
    # a stale target that comes back must leave the list
    assert missing == STALE_TRACER_TARGETS
