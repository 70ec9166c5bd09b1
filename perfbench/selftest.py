"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
They cover the tail-percentile rule, the host-speed normalization,
self-time arithmetic, that traced and
untraced calls give the same checked outputs, that traced call counts
repeat exactly, that seeded inputs repeat, and that the input filters and
class list agree with the package's own exact checks.
"""

import json
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import reference
import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
from tpc import attacks, blackbox, cli, discrim, funcspec  # noqa: E402


class TailPercentileRule(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        samples = random.Random(7).sample(range(1000), 53)
        value, percentile, beyond = run.tail_latency(samples)
        self.assertEqual(sum(x > value for x in samples), beyond)
        self.assertEqual(beyond, run.TAIL_BEYOND)
        self.assertAlmostEqual(percentile, 100.0 * 43 / 53)

    def test_hundred_samples_give_p80(self):
        self.assertEqual(run.tail_latency(range(1, 101)), (80, 80.0, 20))

    def test_capped_at_p80(self):
        self.assertEqual(run.tail_latency(range(5000)), (3999, 80.0, 1000))
        self.assertEqual(run.tail_latency(range(54))[2], run.TAIL_BEYOND)

    def test_smallest_run_is_above_the_median(self):
        value, percentile, _ = run.tail_latency(range(run.MIN_OPS))
        self.assertEqual(value, run.MIN_OPS - run.TAIL_BEYOND - 1)
        self.assertGreater(percentile, 50.0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail_latency(range(run.TAIL_BEYOND))


class Normalization(unittest.TestCase):
    def test_latency_scaled_by_nearby_kernel_time(self):
        ref = reference.Reference()
        for k in range(40):  # a host at half speed for 2 s, then at nominal speed
            ref.add(k * 100_000_000, 2.0 * reference.REF_MS if k < 20 else reference.REF_MS)
        slow, fast = ref.normalize([500_000_000, 3_400_000_000], [10.0, 10.0])
        self.assertAlmostEqual(slow, 5.0)
        self.assertAlmostEqual(fast, 10.0)

    def test_window_widens_to_the_nearest_samples(self):
        ref = reference.Reference()
        for k in range(3 * reference.MIN_SAMPLES):
            ref.add(k * 10**10, 1.0 + k)
        self.assertEqual(ref.local_ms(0, 0), 1.0 + (reference.MIN_SAMPLES - 1) / 2)
        self.assertEqual(ref.local_ms(10**12, 10**12), 3 * reference.MIN_SAMPLES - (reference.MIN_SAMPLES - 1) / 2)

    def test_keep_up_holds_the_kernel_share(self):
        ref = reference.Reference()
        ref.keep_up(5_000_000)
        self.assertGreaterEqual(sum(ref.ms), reference.SHARE * 5.0)
        self.assertGreater(len(ref.ms), 0)


class SelfTime(unittest.TestCase):
    def test_synthetic_nested_spans(self):
        #        A [0,100]
        #        |- B [10,30]   |- F [20,35] overlaps B   |- C [40,90]
        #                                                    |- D [50,60]
        #                                                    |- E [85,95] runs past C
        spans = {  # name: (parent index, start, end), in order of start
            "A": (-1, 0, 100), "B": (0, 10, 30), "F": (0, 20, 35),
            "C": (0, 40, 90), "D": (3, 50, 60), "E": (3, 85, 95),
        }
        parent, start, end = zip(*spans.values())
        own = dict(zip(spans, tracing.self_times(parent, start, end)))
        self.assertEqual(own, {"A": 25, "B": 20, "F": 15, "C": 35, "D": 10, "E": 10})

    def test_traced_parents(self):
        family = funcspec.builtin("ot")
        with tracing.Tracer() as tracer:
            states = blackbox.output_family(family, 0, role="bob").states
            discrim.helstrom(states[0], states[1], 0.5)
        names = [tracer.names[i] for i in tracer.name]
        helstrom = names.index("discrim.helstrom")
        children = {names[s] for s, p in enumerate(tracer.parent) if p == helstrom}
        self.assertIn("kernel.eigh", children)
        self.assertIn("discrim.certify_optimal", children)
        own = tracing.self_times(tracer.parent, tracer.start, tracer.end)
        self.assertTrue(all(0 <= t <= e - s for t, s, e in zip(own, tracer.start, tracer.end)))

    def test_tracer_restores_everything(self):
        before = (cli.main, discrim.helstrom, discrim.Povm.__post_init__, attacks.np.linalg.eigh)
        with tracing.Tracer():
            self.assertIsNot(cli.main, before[0])
        after = (cli.main, discrim.helstrom, discrim.Povm.__post_init__, attacks.np.linalg.eigh)
        self.assertEqual(before, after)


class TracedRuns(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_traced_and_untraced_pass_the_same_checks(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                cycle = workloads.build_cycle(workload, 3, self.tmp)[:3]
                for op in cycle:
                    plain = workloads.run_op(cli, op)
                    self.assertIsNone(workloads.check(op, *plain))
                    with tracing.Tracer() as tracer:
                        traced = workloads.run_op(cli, op)
                    self.assertIsNone(workloads.check(op, *traced))
                    self.assertEqual(plain, traced)
                    self.assertGreater(len(tracer.name), 0)

    def test_call_counts_repeat_exactly(self):
        for workload in ("tables2x2", "counterexample"):
            with self.subTest(workload=workload):
                cycle = workloads.build_cycle(workload, 5, self.tmp)
                counts = []
                for _ in range(2):
                    tally, tracer = run.Tally(), tracing.Tracer()
                    ops, untraced, traced = run.traced_loop(cli, cycle, 0.0, tally, tracer)
                    self.assertEqual((tally.failed, ops), (0, len(cycle)))
                    metrics = tracing.layer_metrics(tracer, ops, traced, traced / untraced - 1)
                    counts.append({k: v for k, v in metrics.items() if "calls" in k or "per_call" in k})
                self.assertEqual(counts[0], counts[1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            texts = []
            for seed in (11, 11, 12):
                with tempfile.TemporaryDirectory() as tmp:
                    cycle = workloads.build_cycle(workload, seed, Path(tmp))
                    files = sorted(p.name + p.read_text() for p in Path(tmp).iterdir())
                    texts.append((files, [op.argv[0] for op in cycle], len(cycle)))
            self.assertEqual(texts[0], texts[1])
            if workload in ("optimize3x3", "tables2x2"):
                self.assertNotEqual(texts[0], texts[2])

    def test_classes_are_the_packages_classes(self):
        ids = sorted(
            attacks.det3x3_function_id(funcspec.canonicalize_3x3(f)).split(":")[1]
            for f in funcspec.enumerate_valid_3x3()
        )
        self.assertEqual(ids, sorted(workloads.CLASSES_3X3))

    def test_filters_match_the_packages_exact_checks(self):
        rng = random.Random(1)
        thirds = (Fraction(1, 3), Fraction(2, 3))  # often independent or stationary
        tables = [workloads.random_binary_table(rng) for _ in range(2000)]
        tables += [tuple(tuple(rng.choice(thirds) for _ in "ij") for _ in "jj") for _ in range(200)]
        for p0 in tables:
            two = funcspec.two_sided_binary(p0)
            self.assertEqual(workloads.in_two_sided_claim(p0), not attacks._two_sided_exception(two))
            one = funcspec.one_sided_binary(p0)
            for q0 in (0.5, rng.randint(1, 19) / 20):
                for i in range(2):
                    self.assertEqual(
                        workloads.basis_measurement_stationary(p0, i, q0),
                        discrim.basis_measurement_optimal(one, i, q0),
                    )


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], tracing.per_layer_metrics())


if __name__ == "__main__":
    unittest.main()
