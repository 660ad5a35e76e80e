"""Layout rules of the package source."""

import ast
from pathlib import Path

import numpy as np

from ringcover.geometry import AnnularRegion, DensityField, PolarCurve, moment_table

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ringcover"


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(function)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_np_mod_only_where_an_angle_is_printed():
    # the library passes unwrapped phases in cyclic order; only the CSV and
    # the SVG bars of the command-line front end wrap them
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.mod"]
    assert all(site.startswith("cli.py:") for site in found), found


def test_no_unused_imports():
    # every name a module imports at top level is used there; __init__.py
    # is the export list
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {name}" for name in
                          ((alias.asname or alias.name.split(".")[0]) for alias in node.names)
                          if name not in used]
    assert found == []


def test_radial_batch_is_one_pass_called_by_the_table_and_the_integral():
    # the radial stage is one exact rule: `_radial_batch` evaluates the density
    # once, with no for or while loop (one comprehension maps the weights),
    # and only the table's grid pass and check and the angular stage call it;
    # the extrema and the degree-4 table read the table's samples
    callers = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [f"{path.name}:{getattr(top, 'name', top.lineno)}"
                        for node in ast.walk(top) if isinstance(node, ast.Call)
                        and ast.unparse(node.func) == "_radial_batch"]
    assert sorted(callers) == ["geometry.py:moment_table", "geometry.py:moment_table",
                               "geometry.py:region_integral"]
    tree = ast.parse((SOURCE / "geometry.py").read_text(encoding="utf-8"))
    batch = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_radial_batch")
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(batch))
    assert sum(isinstance(node, ast.Call) and ast.unparse(node.func) == "density.evaluate"
               for node in ast.walk(batch)) == 1


def _defined_names(node) -> list:
    """Public names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_user_outside_the_tests():
    # each public top-level name is used in the package outside its own
    # definition, or named as module.name by the benchmark; a name only the
    # tests use belongs in the tests
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((SOURCE.parents[1] / "perfbench").glob("*.py")))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            inside = {id(child) for child in ast.walk(node)}
            for name in _defined_names(node):
                used = any((isinstance(use, ast.Name) and use.id == name
                            or isinstance(use, ast.Attribute) and use.attr == name)
                           and id(use) not in inside
                           for other in trees.values() for use in ast.walk(other))
                if not used and f"{module}.{name}" not in bench:
                    found.append(f"{module}.{name}")
    assert found == []


def test_one_panel_doubling_loop():
    # the angular quadrature stage is the one panel-doubling loop
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(isinstance(part, ast.Name) and part.id == "_MAX_PANELS"
                          for part in ast.walk(node))]
    assert len(found) == 1, found


def test_geometry_integrates_weights_without_knowing_the_cost():
    # the service cost is decided in `agents`, which hands geometry a weight
    # function; no name, argument or attribute in geometry speaks of a cost
    tree = ast.parse((SOURCE / "geometry.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.keyword):
            names = [node.arg or ""]
        else:
            continue
        found += [f"geometry.py:{node.lineno} {name}" for name in names
                  if "cost" in name.lower()]
    assert found == []


def test_slice_moments_are_one_product_of_one_coefficient_matrix():
    # slice_moments differences its own basis and multiplies once; it does not
    # go through the cumulative moments, and the table keeps no second set of
    # per-row coefficients for another slice formula
    tree = ast.parse((SOURCE / "geometry.py").read_text(encoding="utf-8"))
    table_class = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "MomentTable")
    method = next(node for node in table_class.body
                  if isinstance(node, ast.FunctionDef) and node.name == "slice_moments")
    calls = [ast.unparse(node.func) for node in ast.walk(method) if isinstance(node, ast.Call)]
    assert not any("cumulative" in call or "value" in call for call in calls), calls
    assert sum(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
               for node in ast.walk(method)) == 1

    table = moment_table(AnnularRegion(PolarCurve(1.0, (0.0, 0.3)), PolarCurve(2.5)),
                         DensityField("reference", (0.01,)))
    rows = table.samples.shape[0]
    per_row = sorted(name for name, value in vars(table).items()
                     if isinstance(value, np.ndarray) and value.ndim == 2
                     and value.shape[0] == rows)
    assert per_row == ["coefficients", "samples"], per_row
    assert table.coefficients.shape == (rows, 1 + 2 * table.mode_count)


def _enclosing_functions(tree, matches) -> list:
    """Qualified names (Class.method or function) of the top-level functions
    and methods that hold a node for which `matches(node)` is true, once per
    node."""
    found = []
    for top in tree.body:
        methods = ([(f"{top.name}.{node.name}", node) for node in top.body
                    if isinstance(node, ast.FunctionDef)]
                   if isinstance(top, ast.ClassDef) else [(getattr(top, "name", ""), top)])
        for name, node in methods:
            found += [name for child in ast.walk(node) if matches(child)]
    return found


def test_bars_step_by_rk4_and_agents_by_its_closed_form_map():
    # the cascade stepper: the bar pass is the only caller of rk4_step and
    # one accept/reject loop, which does not call itself (`run` is its one
    # caller), and the positions move only by RK4's closed-form map of the
    # tracking law, one assignment in a loop of `_System.track`, the one
    # method of the stepper that reads the tracking gain, run from one site
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}

    def sites(matches):
        return sorted(f"{name}:{site}" for name, tree in trees.items()
                      for site in _enclosing_functions(tree, matches))

    def called(name):
        return lambda node: (isinstance(node, ast.Call)
                             and ast.unparse(node.func).split(".")[-1] == name)

    assert sites(called("rk4_step")) == ["sim.py:_System.advance"]
    assert sites(called("advance")) == ["sim.py:_System.run"]
    assert sites(called("track")) == ["sim.py:_System.run"]
    gain_reads = sites(lambda node: isinstance(node, ast.Attribute)
                       and node.attr == "kappa_p" and ast.unparse(node.value) == "self"
                       and isinstance(node.ctx, ast.Load))
    assert [site for site in gain_reads if ":_System." in site] == ["sim.py:_System.track"]
    system = next(node for node in trees["sim.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "_System")
    track = next(node for node in system.body
                 if isinstance(node, ast.FunctionDef) and node.name == "track")
    moves = [node for node in ast.walk(track) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "positions" for t in node.targets)]
    assert len(moves) == 1
    loops = [node for node in ast.walk(track) if isinstance(node, ast.For)]
    assert len(loops) == 1 and loops[0].body == moves


def test_one_bar_law_and_one_cyclic_order_test():
    # `partition.bar_rates` is the only statement of the bar law and
    # `cyclic_gaps` the only test of cyclic order: the stepper defines no rate
    # method, neither module rolls an array, the slice index
    # np.arange(-1, N - 1) is built only beside `bar_rates`, the cyclic form
    # applies the law to its embedding, and the step guard, whose slice
    # masses refuse a crossing, reads the gaps only to name the cause
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}

    def sites(matches, names=trees):
        return sorted(f"{name}:{site}" for name in names
                      for site in _enclosing_functions(trees[name], matches))

    def called(name):
        return lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == name

    system = next(node for node in trees["sim.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "_System")
    methods = [node.name for node in system.body if isinstance(node, ast.FunctionDef)]
    assert not any("rate" in name for name in methods), methods
    assert sites(called("np.roll"), ("partition.py", "sim.py")) == []
    assert sites(lambda node: called("np.arange")(node) and node.args
                 and ast.unparse(node.args[0]) == "-1") == ["partition.py:bar_rates"]
    assert "partition.py:cyclic_difference_form" in sites(called("bar_rates"))
    assert sites(called("cyclic_gaps"), ("sim.py",)).count("sim.py:_System.guard") == 1


def test_config_entries_are_read_only_through_the_reader():
    # `sim._get` is where a config entry's section rules, number rules, bound
    # and error field live; a direct lookup elsewhere in the parser would skip
    # them and could name another field in its error. So inside
    # `scenario_from_dict` and every sim function it reaches, nothing else
    # calls `.get`, subscripts the input `data` or tests a key `in` it
    tree = ast.parse((SOURCE / "sim.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, pending = set(), ["scenario_from_dict"]
    while pending:
        name = pending.pop()
        if name in reached or name == "_get":
            continue
        reached.add(name)
        pending += [node.func.id for node in ast.walk(functions[name])
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions]
    assert {"scenario_from_dict", "_parse_curve", "_duration"} <= reached

    def is_data(node):
        return isinstance(node, ast.Name) and node.id == "data"

    found = [f"{name}:{node.lineno}" for name in sorted(reached)
             for node in ast.walk(functions[name])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "get"
             or isinstance(node, ast.Subscript) and is_data(node.value)
             or isinstance(node, ast.Compare) and any(is_data(part) for part in node.comparators)]
    assert found == []


def test_one_inverse_of_the_cumulative_workload():
    # `MomentTable.inverse_cumulative` is the only code that inverts the
    # cumulative workload M: nothing else in the package evaluates
    # `cumulative` (the slice moments difference their own basis) or
    # interpolates a tabulated one with np.interp
    def evaluates_or_interpolates(node):
        return isinstance(node, ast.Call) and (
            ast.unparse(node.func).split(".")[-1] == "cumulative"
            or ast.unparse(node.func) == "np.interp")

    found = {f"{path.name}:{site}" for path in sorted(SOURCE.glob("*.py"))
             for site in _enclosing_functions(ast.parse(path.read_text(encoding="utf-8")),
                                              evaluates_or_interpolates)}
    assert found == {"geometry.py:MomentTable.inverse_cumulative"}, found
