"""Unit tests for the vectorized geometry kernels (`repro.net.kernels`).

The property suite (`tests/property/test_kernel_equivalence.py`) pins the
batched↔scalar equivalence statistically; these tests pin the edges by
hand — flag resolution with and without NumPy, opaque mobility models,
degenerate legs, and the near-radius ulp regression.
"""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.mobility.geometry import Point
from repro.mobility.models import StaticMobility, WaypointMobility
from repro.net import kernels
from repro.net.adhoc import AdHocWirelessNetwork
from repro.net.spatial import SpatialGridIndex, padded_cell_size
from repro.sim.events import EventScheduler

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


class OpaquePath:
    """A mobility model exposing only ``position_at`` (no motion_at)."""

    def position_at(self, time: float) -> Point:
        return Point(time * 2.0, 1.0)


class TestFlagResolution:
    def test_auto_resolves_to_numpy_availability(self):
        network = AdHocWirelessNetwork(EventScheduler())
        assert network.vectorized == kernels.numpy_available()

    def test_numpy_absence_falls_back_and_rejects_explicit_true(self, monkeypatch):
        monkeypatch.setattr(kernels, "np", None)
        assert not kernels.numpy_available()
        network = AdHocWirelessNetwork(EventScheduler())  # auto: scalar
        assert not network.vectorized
        with pytest.raises(RuntimeError):
            AdHocWirelessNetwork(EventScheduler(), vectorized=True)
        with pytest.raises(RuntimeError):
            kernels.require_numpy()

    def test_numpy_loads_only_with_an_adhoc_network(self):
        # A fresh interpreter: this one has long imported NumPy.
        script = textwrap.dedent(
            """
            import importlib.util, random, sys
            from repro.experiments.trials import run_allocation_trial
            from repro.net.adhoc import AdHocWirelessNetwork
            from repro.sim.events import EventScheduler
            from repro.workloads.supergraph_gen import RandomSupergraphWorkload

            workload = RandomSupergraphWorkload(seed=7).generate(20)
            specification = workload.path_specification(3, random.Random(7))
            result = run_allocation_trial(workload, 3, specification, seed=7)
            assert result.succeeded
            assert "numpy" not in sys.modules, "a simulated-network trial loaded NumPy"
            installed = importlib.util.find_spec("numpy") is not None
            assert AdHocWirelessNetwork(EventScheduler()).vectorized == installed
            assert ("numpy" in sys.modules) == installed
            """
        )
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert child.returncode == 0, child.stderr

    @needs_numpy
    def test_scalar_flag_keeps_scalar_grid(self):
        network = AdHocWirelessNetwork(EventScheduler(), vectorized=False)
        network.register("a", lambda m: None)
        network.place_host("a", Point(0, 0))
        network.neighbours_of("a")
        assert isinstance(network._snapshot.grid, SpatialGridIndex)

    @needs_numpy
    def test_vectorized_flag_builds_vector_grid(self):
        network = AdHocWirelessNetwork(EventScheduler(), vectorized=True)
        network.register("a", lambda m: None)
        network.place_host("a", Point(0, 0))
        network.neighbours_of("a")
        assert isinstance(network._snapshot.grid, kernels.VectorGridIndex)


@needs_numpy
class TestLegTable:
    def test_positions_match_models_exactly(self):
        models = [
            StaticMobility(Point(3, 4)),
            WaypointMobility([Point(0, 0), Point(10, 7)], speed=1.3, pause=2.0),
            None,  # never placed: pinned at the origin
        ]
        table = kernels.LegTable(models)
        for time in (0.0, 1.0, 2.5, 7.75, 40.0):
            xs, ys = table.positions_at(time)
            assert Point(xs[0], ys[0]) == Point(3, 4)
            assert Point(xs[1], ys[1]) == models[1].position_at(time)
            assert Point(xs[2], ys[2]) == Point(0, 0)

    def test_opaque_model_is_evaluated_through_position_at(self):
        table = kernels.LegTable([OpaquePath(), StaticMobility(Point(1, 1))])
        xs, ys = table.positions_at(3.0)
        assert Point(xs[0], ys[0]) == Point(6.0, 1.0)
        assert Point(xs[1], ys[1]) == Point(1, 1)
        # Opaque rows cannot be scheduled from the table.
        times = table.next_move_times(3.0, [0, 1])
        assert math.isnan(times[0])
        assert times[1] == math.inf

    def test_next_move_times_match_model_reports(self):
        walker = WaypointMobility([Point(0, 0), Point(10, 0)], speed=2.0, pause=5.0)
        table = kernels.LegTable([walker, StaticMobility(Point(0, 0)), None])
        # The scalar network derives the same value from one motion_at call.
        scalar = AdHocWirelessNetwork(EventScheduler(), vectorized=False)
        scalar.register("walker", lambda m: None)
        scalar.place_host("walker", walker)
        # Pausing until 5, moving until 10, then at rest for good.
        for time, expected in ((0.0, 5.0), (2.0, 5.0), (6.0, 6.0), (30.0, math.inf)):
            times = table.next_move_times(time, [0, 1, 2])
            assert times[0] == scalar._next_move_time("walker", time) == expected
            assert times[1] == math.inf
            assert times[2] == math.inf

    def test_subset_evaluation_refreshes_only_requested_rows(self):
        walkers = [
            WaypointMobility([Point(i, 0), Point(i, 50)], speed=1.0)
            for i in range(4)
        ]
        table = kernels.LegTable(walkers)
        xs, ys = table.positions_at(3.0, [1, 3])
        assert Point(xs[0], ys[0]) == walkers[1].position_at(3.0)
        assert Point(xs[1], ys[1]) == walkers[3].position_at(3.0)


@needs_numpy
class TestVectorGridIndex:
    def from_positions(self, positions, cell_size):
        ids = sorted(positions)
        xs = [positions[i].x for i in ids]
        ys = [positions[i].y for i in ids]
        return kernels.VectorGridIndex(ids, xs, ys, cell_size)

    def test_matches_scalar_grid_on_scatter(self):
        import random

        rng = random.Random(7)
        positions = {
            f"h{i}": Point(rng.uniform(-300, 300), rng.uniform(-300, 300))
            for i in range(60)
        }
        radius = 80.0
        scalar = SpatialGridIndex(positions, cell_size=padded_cell_size(radius))
        vector = self.from_positions(positions, padded_cell_size(radius))
        for host, point in positions.items():
            assert vector.near(point, radius) == scalar.near(point, radius)
            assert vector.neighbours_of(host, radius) == scalar.neighbours_of(
                host, radius
            )
        # Probe points that are not hosts, including far outside the site.
        for probe in (Point(0, 0), Point(1000, 1000), Point(-299.5, 299.5)):
            assert vector.near(probe, radius) == scalar.near(probe, radius)

    def test_component_partition_matches_scalar_grid(self):
        positions = {
            "a": Point(0, 0),
            "b": Point(50, 0),
            "c": Point(100, 0),
            "x": Point(500, 500),
            "y": Point(540, 500),
        }
        scalar = SpatialGridIndex(positions, cell_size=60.0)
        vector = self.from_positions(positions, 60.0)
        for radius in (60.0, 1000.0):
            scalar_labels = scalar.component_labels(radius)
            vector_labels = vector.component_labels(radius)
            partition = lambda labels: {
                frozenset(h for h in labels if labels[h] == label)
                for label in set(labels.values())
            }
            assert partition(scalar_labels) == partition(vector_labels)

    def test_neighbour_sets_and_labels_agree_with_queries(self):
        positions = {"a": Point(0, 0), "b": Point(30, 0), "c": Point(200, 0)}
        vector = self.from_positions(positions, 60.0)
        sets, labels, certificate = vector.neighbour_sets_and_labels(60.0)
        assert sets == {
            host: vector.neighbours_of(host, 60.0) for host in positions
        }
        assert labels["a"] == labels["b"] != labels["c"]
        assert certificate is None  # no speeds: nothing certified

    def test_stability_horizon_matches_scalar_grid(self):
        import random

        rng = random.Random(11)
        positions = {
            f"h{i}": Point(rng.uniform(0, 300), rng.uniform(0, 300)) for i in range(40)
        }
        speeds = {
            host: rng.choice((0.0, rng.uniform(0.5, 10.0))) for host in positions
        }
        # A pair a millimetre inside the range, closing at 10 m/s, comes due
        # long before any cell edge.
        positions.update(p=Point(130.0, 140.0), q=Point(189.999, 140.0))
        speeds.update(p=5.0, q=5.0)
        cell_size = padded_cell_size(60.0)
        scalar = SpatialGridIndex(positions, cell_size=cell_size)
        vector = self.from_positions(positions, cell_size)
        speed_array = kernels.np.array([speeds[host] for host in vector.ids])
        for margin in (0.0, 1e-7):
            _, _, expected = scalar.neighbour_sets_and_labels(60.0, speeds, margin)
            _, _, certificate = vector.neighbour_sets_and_labels(
                60.0, speed_array, margin
            )
            # Bit for bit: the cell-edge bound and every kept pair's bound.
            assert certificate.edge == expected.edge
            assert sorted(certificate.pairs) == sorted(expected.pairs)
            assert expected.pairs  # some pair bounds the horizon
            assert all(host < other for _, host, other, _ in expected.pairs)
            assert all(0.0 < pair[0] < expected.edge < math.inf for pair in expected.pairs)
        # A fleet at rest can never change.
        at_rest = {host: 0.0 for host in positions}
        assert scalar.neighbour_sets_and_labels(60.0, at_rest)[2] == (math.inf, [])

    def test_ulp_boundary_pair_is_found(self):
        # The PR-3 regression: the exact separation exceeds the radius but
        # the rounded distance is exactly 1.0, and the cells sit two apart.
        positions = {"top": Point(0.0, 1.0), "bottom": Point(0.0, -1e-158)}
        for cell_size in (1.0, padded_cell_size(1.0), 0.3, 7.0):
            vector = self.from_positions(positions, cell_size)
            assert vector.neighbours_of("top", 1.0) == {"bottom"}, cell_size
            assert vector.neighbours_of("bottom", 1.0) == {"top"}, cell_size

    def test_boundary_band_rechecks_with_scalar_hypot(self):
        # Two hosts exactly radius apart (inclusive) and two a hair outside.
        positions = {
            "a": Point(0, 0),
            "edge": Point(100.0, 0.0),
            "out": Point(math.nextafter(100.0, 200.0), 0.0),
        }
        vector = self.from_positions(positions, padded_cell_size(100.0))
        assert vector.neighbours_of("a", 100.0) == {"edge"}

    def test_move_many_rebuckets(self):
        positions = {"a": Point(0, 0), "b": Point(50, 0)}
        vector = self.from_positions(positions, 100.0)
        index = vector.index_of("a")
        vector.move_many([index], [250.0], [250.0])
        assert vector.near(Point(250, 250), 10.0) == {"a"}
        assert vector.near(Point(0, 0), 10.0) == frozenset()
        assert vector.position_of("a") == Point(250, 250)

    def test_empty_index(self):
        vector = kernels.VectorGridIndex([], [], [], 10.0)
        assert vector.near(Point(0, 0), 5.0) == frozenset()
        assert vector.component_labels(5.0) == {}
        assert len(vector) == 0

    def test_extreme_coordinates_do_not_overflow(self):
        positions = {"far": Point(1e300, -1e300), "near": Point(0, 0)}
        vector = self.from_positions(positions, 100.0)
        assert vector.neighbours_of("near", 50.0) == frozenset()
        assert vector.near(Point(1e300, -1e300), 1.0) == {"far"}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kernels.VectorGridIndex([], [], [], 0.0)
        vector = self.from_positions({"a": Point(0, 0)}, 10.0)
        with pytest.raises(ValueError):
            vector.near(Point(0, 0), -1.0)
