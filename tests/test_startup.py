"""Start-up stays light: no module imports scipy when it loads.

scipy is imported inside the functions that call it, so the runner, the
service and every forked worker start without it.  Three call sites use a
smaller piece of scipy in place of ``scipy.stats``; the pins below hold
each one ``==`` to the ``scipy.stats`` function it replaces, on whatever
scipy is installed.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.dataeff.ranking import PanelResult, kendall_tau
from repro.dataeff.recommenders import EvalResult
from repro.fleet.utilization import UtilizationDistribution
from repro.lifecycle.jobs import EXPERIMENTATION_JOBS, Z99, JobDurationModel

SRC = Path(__file__).resolve().parents[1] / "src"


def _scipy_imports(path: Path) -> list[tuple[str, bool]]:
    """(imported name, at module level) for every scipy import in ``path``."""
    found: list[tuple[str, bool]] = []

    class Visitor(ast.NodeVisitor):
        depth = 0

        def visit_FunctionDef(self, node):
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Import(self, node):
            found.extend((alias.name, self.depth == 0) for alias in node.names)

        def visit_ImportFrom(self, node):
            if node.module and not node.level:
                found.extend(
                    (f"{node.module}.{alias.name}", self.depth == 0) for alias in node.names
                )

    Visitor().visit(ast.parse(path.read_text(), filename=str(path)))
    return [(name, top) for name, top in found if name.split(".")[0] == "scipy"]


def _modules_after(code: str) -> list[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestNoScipyAtImport:
    def test_no_module_imports_scipy_at_module_level(self):
        top_level = {
            str(path.relative_to(SRC)): name
            for path in sorted(SRC.rglob("*.py"))
            for name, top in _scipy_imports(path)
            if top
        }
        assert top_level == {}

    def test_only_the_sobol_sampler_names_scipy_stats(self):
        naming = {
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            for name, _top in _scipy_imports(path)
            if name == "scipy.stats" or name.startswith("scipy.stats.")
        }
        assert naming == {"repro/core/sweep.py"}

    def test_runner_and_service_load_without_scipy(self):
        loaded = _modules_after(
            "import repro.experiments.runner, repro.service.app, repro.service.router"
        )
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_a_cli_run_loads_neither_asyncio_nor_the_service(self):
        loaded = _modules_after(
            "import contextlib, io\n"
            "from repro.experiments import runner\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert runner.main(['run', 'fig7', '--jobs', '1']) == 0"
        )
        assert [m for m in loaded if m == "asyncio" or m.startswith("repro.service")] == []
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


class TestServiceImportsStayNarrow:
    """``repro.service`` re-exports nothing, so a submodule loads only itself."""

    def test_a_sweep_json_loads_neither_asyncio_nor_the_service(self, tmp_path):
        target = str(tmp_path / "sweep.json")
        loaded = _modules_after(
            "import contextlib, io\n"
            "from repro.experiments import runner\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    argv = ['sweep', '--param', 'pue=1.1:1.2:2', '--quiet', '--json', {target!r}]\n"
            "    assert runner.main(argv) == 0"
        )
        assert [m for m in loaded if m == "asyncio" or m.startswith("repro.service")] == []

    def test_the_query_model_loads_without_asyncio(self):
        assert "asyncio" not in _modules_after("import repro.service.queries")

    def test_a_pooled_run_loads_the_pool_but_not_the_service(self):
        # ``run`` takes one id or ``all``; two ids take its pooled path.
        loaded = _modules_after(
            "from repro.experiments import runner\n"
            "records = runner._run_many(['fig7', 'fig8'], jobs=2)\n"
            "assert [record.status for record in records] == ['ok', 'ok']"
        )
        assert "repro.service.pool" in loaded
        assert "repro.service.app" not in loaded


def _panel(scores) -> PanelResult:
    return PanelResult(
        tuple(EvalResult(f"algo{i}", 0.0, float(s), 10, 1) for i, s in enumerate(scores)),
        wall_time_s=0.0,
    )


_TIED_SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
_BAND_EDGES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _score_pairs(draw):
    n = draw(st.integers(2, 9))
    lists = st.lists(_TIED_SCORES, min_size=n, max_size=n)
    return draw(lists), draw(lists)


class TestScipyPins:
    @settings(max_examples=300)
    @given(_score_pairs())
    def test_kendall_tau_is_scipy_kendalltau(self, pair):
        full, sampled = pair
        expected = stats.kendalltau(full, sampled).statistic
        got = kendall_tau(_panel(full), _panel(sampled))
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected

    def test_kendall_tau_is_nan_when_one_side_is_all_ties(self):
        assert math.isnan(kendall_tau(_panel([0.3, 0.3, 0.3]), _panel([0.1, 0.2, 0.3])))
        assert math.isnan(kendall_tau(_panel([0.1, 0.2, 0.3]), _panel([0.5, 0.5, 0.5])))
        assert math.isnan(stats.kendalltau([0.3, 0.3, 0.3], [0.1, 0.2, 0.3]).statistic)

    @settings(max_examples=200)
    @given(
        st.floats(0.2, 20.0),
        st.floats(0.2, 20.0),
        st.lists(_BAND_EDGES, min_size=2, max_size=8),
    )
    def test_band_masses_are_scipy_beta_cdf(self, alpha, beta, points):
        dist = UtilizationDistribution(alpha, beta)
        cdf = stats.beta(alpha, beta).cdf
        edges = np.sort(np.asarray(points[: len(points) // 2 * 2])).reshape(-1, 2)
        bands = tuple((float(lo), float(hi)) for lo, hi in edges)
        assert np.array_equal(dist.fractions_in_bands(bands), cdf(edges)[:, 1] - cdf(edges)[:, 0])
        for lo, hi in bands:
            assert dist.fraction_in_band(lo, hi) == float(cdf(hi) - cdf(lo))

    def test_z99_is_the_normal_quantile(self):
        assert Z99 == stats.norm.ppf(0.99)

    @settings(max_examples=200)
    @given(
        st.floats(1e-9, 1.0 - 1e-9),
        st.floats(1e-3, 1e4),
        st.sampled_from([EXPERIMENTATION_JOBS, JobDurationModel.from_percentiles(2.96, 125.0)]),
    )
    def test_quantile_and_exceedance_are_scipy_norm(self, q, gpu_days, model):
        assert model.quantile(q) == float(np.exp(model.mu + model.sigma * stats.norm.ppf(q)))
        z = (np.log(gpu_days) - model.mu) / model.sigma
        assert model.exceedance_fraction(gpu_days) == float(stats.norm.sf(z))
