"""The bench tracer wraps library functions by name, and the workloads call
them by name; every name they use must resolve, or a rename would silently
break a bench run.  The package's own imports are checked here too, no
private module-level name in the package may be left unused, and no four
consecutive code lines may repeat in it."""

import ast
import dataclasses
import glob
import importlib
import importlib.util
import inspect
import io
import os
import random
import re
import tokenize
import types

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "forestalg")
TRACER = os.path.join(BENCH, "tracer.py")
WORKLOADS = os.path.join(BENCH, "workloads.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_tables_resolve_on_the_package():
    tracer = _load(TRACER, "bench_tracer")
    for name in tracer.MODULES:
        importlib.import_module("forestalg." + name)
    entries = [row[:2] for row in tracer.SPANNED + tracer.COUNTED]
    assert ("algebra", "quotient_by_ideal") in entries
    for modname, attr in entries:
        target = importlib.import_module("forestalg." + modname)
        for part in attr.split("."):
            assert hasattr(target, part), "%s.%s" % (modname, attr)
            target = getattr(target, part)
        assert callable(target), "%s.%s" % (modname, attr)


def _lib():
    """What the workloads receive as ``lib``: the package's modules."""
    tracer = _load(TRACER, "bench_tracer")
    return types.SimpleNamespace(**{
        name: importlib.import_module("forestalg." + name)
        for name in tracer.MODULES})


def test_workload_library_calls_resolve_on_the_package():
    with open(WORKLOADS, encoding="utf-8") as fh:
        used = set(re.findall(r"\blib\.(\w+)\.(\w+)", fh.read()))
    assert ("algebra", "close_vertical") in used
    lib = _lib()
    for modname, attr in used:
        assert hasattr(getattr(lib, modname), attr), "%s.%s" % (modname, attr)


def _workload_calls():
    """(module, name, positional count, keyword names, line) of every
    direct call ``lib.<module>.<name>(...)`` in the workloads."""
    with open(WORKLOADS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), WORKLOADS)
    calls = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "lib"):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(kw.arg is not None for kw in node.keywords)
            calls.append((func.value.attr, func.attr, len(node.args),
                          tuple(kw.arg for kw in node.keywords), node.lineno))
    return calls


def test_workload_library_calls_bind_on_the_package():
    """Each call's arguments bind to the signature it calls, so a dropped
    or renamed parameter fails here and not only in a bench run."""
    calls = _workload_calls()
    assert ("defk", "definiteness_oracle", 2, ("depth_bound", "fill_depth",
                                               "fill_width")) in [
        call[:4] for call in calls]
    lib = _lib()
    for modname, attr, npos, keywords, line in calls:
        signature = inspect.signature(getattr(getattr(lib, modname), attr))
        try:
            signature.bind(*[None] * npos, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError("workloads.py:%d: lib.%s.%s: %s"
                                 % (line, modname, attr, exc)) from None


def test_workload_vertical_closures_run():
    """The workloads build recognizers with close_vertical(H, gens,
    warn_on_merge=False); run those builders on small instances."""
    workloads = _load(WORKLOADS, "bench_workloads")
    lib = _lib()
    big = workloads.random_big_recognizer(lib, random.Random(1), ("a", "b"),
                                          atoms=2)
    assert big.hom.target.H.size == 4 and big.hom.target.V.size > 1
    L = ("a", "b", "c")
    power = lib.hom.syntactic(lib.logic.to_recognizer(
        lib.logic.parse_formula("EX a"), L))[0]
    xor = workloads.xor_recognizer(lib, power,
                                   workloads.u2_recognizer(lib, L), L)
    assert xor.hom.target.H.size == power.hom.target.H.size * 2
    assert not lib.decide.decide(xor, "ex").definable


def _oracle_importers():
    """(module, enclosing function) of every import of the oracle module
    in the package, with "" for a module-level import."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            names = ()
            if isinstance(child, ast.ImportFrom):
                names = [child.module or ""] + [
                    "%s.%s" % (child.module or "", alias.name)
                    for alias in child.names]
            elif isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            if any("oracle" in name.split(".") for name in names):
                found.add((module, ".".join(scope)))
            visit(child, module, inner)

    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read(), path), module, ())
    return found


def test_cross_check_code_stays_off_the_decide_and_decompose_paths():
    """Only the oracle-check command and the definiteness cross-check
    import the oracle; the package's export list re-exports it."""
    assert _oracle_importers() == {("__init__", ""), ("cli", ""),
                                   ("defk", "definiteness_oracle")}


def _defk_imports(module):
    """Names that a package module imports from defk; "defk" stands for
    the module itself."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if "defk" in (node.module or "").split("."):
                names.update(alias.name for alias in node.names)
            else:
                names.update(alias.name for alias in node.names
                             if alias.name == "defk")
        elif isinstance(node, ast.Import):
            names.update("defk" for alias in node.names
                         if "defk" in alias.name.split("."))
    return names


def test_decompose_takes_only_the_degree_from_defk():
    """The depth-k groups read their classes off their own stages, so no
    depth-k key code is on the decomposition path."""
    assert _defk_imports("decompose") == {"definiteness_degree"}


def _unused_private_names(root):
    """Module-level names starting with one underscore in the package that
    nothing in the package or the tests refers to; a top-level definition
    referring to itself does not count."""
    src = os.path.join(root, "src", "forestalg")
    defined, used = set(), set()
    for path in (glob.glob(os.path.join(src, "*.py"))
                 + glob.glob(os.path.join(root, "tests", "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:
            owner = getattr(top, "name", None)
            names = [owner] if owner else [
                t.id for t in getattr(top, "targets", ())
                if isinstance(t, ast.Name)]
            if os.path.dirname(path) == src:
                defined.update((module, name) for name in names
                               if re.match(r"_[^_]", name))
            refs = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
            used |= refs - {owner}
    return {"%s.%s" % pair for pair in defined if pair[1] not in used}


def test_every_private_module_name_is_used():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    assert _unused_private_names(root) == set()


def _algebra_constructions():
    """(module, top-level definition, constructor) of every call of
    ForestAlgebra(...) or ForestAlgebra.__new__(...) in the package."""
    found = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "__new__":
                    func, made = func.value, "ForestAlgebra.__new__"
                else:
                    made = "ForestAlgebra"
                if isinstance(func, ast.Name) and func.id == "ForestAlgebra":
                    found.add((module, getattr(top, "name", ""), made))
    return found


def test_only_table_algebras_call_the_constructor():
    """Algebras given by tables are built by ForestAlgebra(...); every
    algebra built from action rows comes from generated_algebra, which
    close_vertical returns as it is."""
    assert _algebra_constructions() == {
        ("io", "parse_algebra", "ForestAlgebra"),
        ("algebra", "u1", "ForestAlgebra"),
        ("algebra", "u2", "ForestAlgebra"),
        ("algebra", "generated_algebra", "ForestAlgebra.__new__")}


def _summing_closures():
    """(module, top-level definition) of every joint.closure(...) call in
    the package whose ``plus`` argument is not None."""
    found = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "closure"):
                    continue
                plus = [kw.value for kw in node.keywords if kw.arg == "plus"]
                plus += node.args[3:4]
                if not (plus and isinstance(plus[0], ast.Constant)
                        and plus[0].value is None):
                    found.add((module, getattr(top, "name", "")))
    return found


def test_only_numbered_and_oracle_closures_sum_all_pairs():
    """Sets of forest values come from joint.image, which sums each value
    with tree values only; joint.closure, which sums each unordered pair,
    is kept where elements are numbered in its discovery order, and for
    the oracle."""
    assert _summing_closures() == {
        ("logic", "to_recognizer"),
        ("defk", "free_kdefinite"),
        ("oracle", "_plus_closure"),
        ("oracle", "brute_confused_pairs")}


def _self_calling_functions(module):
    """Names of the functions, nested ones included, in a package module
    whose body calls the function itself by name."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == node.name
                    for call in ast.walk(node))}


def test_decompositions_share_one_recursion():
    """decompose_ef and decompose_efex both peel through _efex_rec; a
    second decomposition recursion would show up here."""
    assert _self_calling_functions("decompose") == {"_efex_rec"}


def _closure_calls():
    """(module, enclosing definitions, ``what`` argument) of every call of
    closure(...) in the package, one entry per call site; ``what`` is None
    unless it is given as a constant."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "closure"):
                what = [kw.value for kw in child.keywords if kw.arg == "what"]
                what += child.args[5:6]
                found.append((module, ".".join(scope),
                              what[0].value if what and isinstance(
                                  what[0], ast.Constant) else None))
            visit(child, module, inner)

    for path in glob.glob(os.path.join(SRC, "*.py")):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read(), path), module, ())
    return found


def test_vertical_monoids_are_closed_in_one_place():
    """ForestAlgebra closes V when it is first read; close_vertical only
    builds the generated algebra, so it closes nothing."""
    calls = _closure_calls()
    assert [(module, scope) for module, scope, what in calls
            if what == "vertical closure"] == [("algebra", "ForestAlgebra.V")]
    assert all(scope.split(".")[0] != "close_vertical"
               for module, scope, _ in calls if module == "algebra")


def _count_image_calls(monkeypatch):
    """Count the calls of joint.image under every name the package binds
    it to, and the image searches of hom._carrier, which steps a hom not
    marked onto on its tables instead."""
    calls = []
    real = importlib.import_module("forestalg.joint").image

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for path in glob.glob(os.path.join(SRC, "*.py")):
        name = os.path.splitext(os.path.basename(path))[0]
        module = importlib.import_module("forestalg." + name)
        if getattr(module, "image", None) is real:
            monkeypatch.setattr(module, "image", counted)
    hom_module = importlib.import_module("forestalg.hom")
    carrier = hom_module._carrier

    def counted_carrier(hom):
        if not hom.onto:
            calls.append(hom)
        return carrier(hom)

    monkeypatch.setattr(hom_module, "_carrier", counted_carrier)
    return calls


def test_formula_path_computes_no_image(monkeypatch):
    """A compiled formula's hom is onto, and so is its syntactic quotient:
    deciding runs joint.image neither for the syntactic carrier nor for
    the restriction before the definiteness test."""
    decide = importlib.import_module("forestalg.decide")
    logic = importlib.import_module("forestalg.logic")
    calls = _count_image_calls(monkeypatch)
    for text in ("EF a & EX b", "EF(a & EX b) | EF(b & EX a)",
                 "EX(a & EF b) | EX(b & EF a)", "EX EX a", "EF(a & EF b)"):
        rec = logic.to_recognizer(logic.parse_formula(text), ("a", "b"))
        for fragment in ("ef", "ex", "efex"):
            decide.decide(rec, fragment)
            assert calls == [], (text, fragment)


def test_loaded_recognizer_computes_one_image_per_decision(monkeypatch):
    """A recognizer read from a file may hold unreachable elements, so its
    syntactic quotient computes the image once; the quotient is onto, so
    nothing after it computes another."""
    decide = importlib.import_module("forestalg.decide")
    from forestalg.hom import Homomorphism, Recognizer
    from forestalg.io import load_algebra

    calls = _count_image_calls(monkeypatch)
    fixtures = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
    for name in ("chain4", "u1_efa", "u2_abc"):
        alg, letters, accept = load_algebra(os.path.join(fixtures, name + ".fa"))
        hom = Homomorphism(tuple(sorted(letters)), alg, dict(letters))
        rec = Recognizer(hom, accept or frozenset())
        for fragment in ("ef", "ex", "efex"):
            del calls[:]
            decide.decide(rec, fragment)
            assert calls == [hom], (name, fragment)


def test_kdefinite_decomposition_computes_one_image_of_the_hom(monkeypatch):
    """decompose_kdefinite restricts a hand-built hom once and takes the
    definiteness degree of the restriction, which is onto: the hom's image
    is computed once.  The cascade's own closures are not counted."""
    algebra = importlib.import_module("forestalg.algebra")
    decompose = importlib.import_module("forestalg.decompose")
    from forestalg.hom import Homomorphism

    calls = _count_image_calls(monkeypatch)
    u2 = algebra.u2()
    hom = Homomorphism(("a", "b"), u2, {"a": u2.V.names.index("cinf"),
                                        "b": u2.V.names.index("c0")})
    casc = decompose.decompose_kdefinite(hom, 1)
    assert casc.factors(hom) == (True, None)
    assert [c for c in calls if isinstance(c, Homomorphism)] == [hom]


def test_realize_rebuilds_no_candidate(monkeypatch):
    """realize joins each candidate's size and text from the numbered
    trees of its forest: it neither normalizes nor prints a forest per
    candidate.  On EX^4 a xor u2_abc (32 values)
    helpers.reference_realize makes over a thousand calls of each,
    recursive ones included; a cap of one call per fixed value leaves no
    room for that."""
    from helpers import xor_u2_hom

    terms = importlib.import_module("forestalg.terms")
    hom_module = importlib.import_module("forestalg.hom")
    hom = xor_u2_hom(4)
    calls = {"ic_normalize": 0, "print_forest": 0}
    for name in calls:
        real = getattr(terms, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(terms, name, counted)
    done = hom_module.realize(hom)
    assert len(done) == hom.target.H.size == 32
    assert all(n <= len(done) for n in calls.values()), calls


def test_reachability_structures_hold_only_their_fields():
    """A reachability result is what its dataclass declares: no structure
    is patched onto it after it is built."""
    from helpers import four_element_algebra

    algebra = importlib.import_module("forestalg.algebra")
    reach = importlib.import_module("forestalg.reach")
    for alg in (algebra.u1(), algebra.u2(), four_element_algebra().hom.target):
        rs = reach.reachability(alg)
        assert vars(rs).keys() == {f.name for f in dataclasses.fields(rs)}


def _code_lines(path):
    """A module's code lines as (line number, text), the text its tokens
    joined by spaces; comments, docstrings and blank lines are left out."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first.lineno)
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    lines = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in skipped or (tok.type == tokenize.STRING
                                   and tok.start[0] in docstrings):
            continue
        lines.setdefault(tok.start[0], []).append(tok.string)
    return [(n, " ".join(toks)) for n, toks in sorted(lines.items())]


def test_no_four_code_lines_repeat_in_the_package():
    """No run of four consecutive code lines appears twice anywhere in the
    package: a repeated block is written once, as a function."""
    places = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        lines = _code_lines(path)
        for i in range(len(lines) - 3):
            window = tuple(text for _, text in lines[i:i + 4])
            places.setdefault(window, []).append(
                "%s:%d" % (os.path.basename(path), lines[i][0]))
    assert [p for p in places.values() if len(p) > 1] == []
