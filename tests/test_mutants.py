"""tools/mutants.py draws a stable sample of real one-edit mutants.

The script itself runs tier-1 once per mutant and stays outside tier-1; these
checks run no pytest and keep its sampler from rotting.
"""

import ast
import importlib.util
import random
import sys
import types
from pathlib import Path

from hypothesis import Phase

REPO = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", REPO / "tools" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)  # dataclasses look it up
spec.loader.exec_module(mutants)

# every operator the script swaps, chained in one expression, and one int constant
EVERY_OPERATOR = "a < b <= c > d >= e == f != g and (h or i + j - k * l / m + 1)"


def test_site_enumeration_and_the_seeded_sample_are_stable():
    sites = mutants.sites()
    assert mutants.sites() == sites
    assert len(set(sites)) == len(sites) > mutants.SAMPLE_SIZE
    assert {site.module for site in sites} == set(mutants.MODULES)
    chosen = mutants.sample()
    assert chosen == random.Random(mutants.SEED).sample(sites, mutants.SAMPLE_SIZE)
    assert len(set(chosen)) == mutants.SAMPLE_SIZE


def test_each_sampled_mutant_compiles_and_differs_from_the_null_mutant_at_its_site():
    null = {module: mutants.null_source(module).splitlines() for module in mutants.MODULES}
    for site in mutants.sample():
        source = mutants.mutant_source(site)
        compile(source, f"{site.module}.py", "exec")
        lines = source.splitlines()
        assert len(lines) == len(null[site.module])
        changed = [i for i, (a, b) in enumerate(zip(null[site.module], lines)) if a != b]
        assert len(changed) == 1, site
        before, after = site.edit.split(" -> ")
        assert before in null[site.module][changed[0]] and after in lines[changed[0]], site


def test_no_edit_is_a_no_op():
    assert all(new is not old and mutants.SWAPS[new] is old for old, new in mutants.SWAPS.items())
    assert set(mutants.SYMBOLS) == set(mutants.SWAPS)
    assert len(set(mutants.SYMBOLS.values())) == len(mutants.SYMBOLS)
    null = ast.dump(ast.parse(EVERY_OPERATOR))
    edits = mutants._edits(ast.parse(EVERY_OPERATOR))
    assert {before for _, before, _, _ in edits} == set(mutants.SYMBOLS.values()) | {"1"}
    for index in range(len(edits)):
        tree = ast.parse(EVERY_OPERATOR)
        mutants.mutate(tree, index)
        assert ast.dump(ast.parse(ast.unparse(tree))) != null


def test_the_copy_loads_a_profile_without_shrink_or_explain(monkeypatch):
    # the copy's conftest.py run against a stand-in hypothesis, so this process keeps its profile
    profiles, loaded = {}, []
    stand_in = types.ModuleType("hypothesis")
    stand_in.Phase = Phase
    stand_in.settings = types.SimpleNamespace(
        register_profile=lambda name, **kw: profiles.__setitem__(name, kw),
        load_profile=loaded.append)
    monkeypatch.setitem(sys.modules, "hypothesis", stand_in)
    exec(mutants.CONFTEST, {})
    assert loaded == list(profiles) and len(loaded) == 1
    assert set(profiles[loaded[0]]["phases"]) == set(Phase) - {Phase.shrink, Phase.explain}
