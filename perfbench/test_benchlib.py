"""Self-tests of the benchmark's percentile rule and request schedule.

Run from the root of a checkout:  python3 perfbench/test_benchlib.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7.0], 90), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2)

    def test_rank_is_exact_integer_arithmetic(self):
        # 0.9 * 100 in floating point would round the rank up to 91.
        for n in range(1, 2000):
            rank = (90 * n + 99) // 100
            self.assertGreaterEqual(rank * 100, 90 * n)
            self.assertLess((rank - 1) * 100, 90 * n)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_count(100, 90), 10)
        self.assertEqual(benchlib.tail_count(99, 90), 9)
        self.assertEqual(benchlib.tail_percentile(list(range(100)), 90), 89)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(99)), 90)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1], 0)


class ReferenceSpeed(unittest.TestCase):
    def test_reference_speed_leaves_times_alone(self):
        ref = benchlib.REFERENCE_MS
        self.assertEqual(benchlib.at_reference_speed([3.0, 5.0],
                                                     [ref, ref, ref]),
                         [3.0, 5.0])

    def test_slower_kernel_scales_down(self):
        # The kernel takes twice its reference time around the first
        # operation; 2x before and 0.5x after the second (mean 1.25x).
        ref = benchlib.REFERENCE_MS
        got = benchlib.at_reference_speed([10.0, 10.0],
                                          [2 * ref, 2 * ref, 0.5 * ref])
        self.assertAlmostEqual(got[0], 5.0)
        self.assertAlmostEqual(got[1], 10.0 / 1.25)

    def test_needs_one_more_reference_than_operations(self):
        with self.assertRaises(ValueError):
            benchlib.at_reference_speed([1.0, 2.0], [1.0, 1.0])


class Digest(unittest.TestCase):
    def test_fnv1a_reference_values(self):
        self.assertEqual(benchlib.fnv1a(b""), "cbf29ce484222325")
        self.assertEqual(benchlib.fnv1a(b"a"), "af63dc4c8601ec8c")


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(benchlib.make_schedule(7, 25),
                         benchlib.make_schedule(7, 25))

    def test_other_seed_other_schedule(self):
        a = benchlib.make_schedule(7, 25)
        b = benchlib.make_schedule(8, 25)
        self.assertNotEqual([x.due_s for x in a], [x.due_s for x in b])
        self.assertNotEqual([x.seed for x in a], [x.seed for x in b])

    def test_shape(self):
        sched = benchlib.make_schedule(3, 25)
        count = round(benchlib.RATE * 25)
        self.assertEqual(len(sched), count)
        dues = [a.due_s for a in sched]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(all(0.0 <= d < 25.0 for d in dues))
        self.assertEqual([a.index for a in sched], list(range(count)))

    def test_originals_cycle_types_with_unique_seeds(self):
        sched = benchlib.make_schedule(5, 25)
        originals = [a for a in sched if a.repeat_of < 0]
        self.assertEqual([a.ctype for a in originals],
                         [benchlib.CIRCUIT_TYPES[i % 11]
                          for i in range(len(originals))])
        seeds = [a.seed for a in originals]
        self.assertEqual(len(set(seeds)), len(seeds))
        self.assertNotIn(0, seeds)

    def test_seeds_survive_a_double(self):
        # The protocol parses numbers into doubles: every seed must be an
        # integer a double holds exactly.
        for seed in range(20):
            for a in benchlib.make_schedule(seed, 25):
                self.assertLess(a.seed, 2 ** 53)
                self.assertEqual(int(float(a.seed)), a.seed)

    def test_repeats_of_old_enough_originals(self):
        for seed in range(20):
            sched = benchlib.make_schedule(seed, 25)
            repeats = [a for a in sched if a.repeat_of >= 0]
            self.assertEqual(len(repeats),
                             round(benchlib.REPEAT_FRAC * len(sched)))
            for r in repeats:
                orig = sched[r.repeat_of]
                self.assertLess(orig.repeat_of, 0)
                self.assertGreaterEqual(r.due_s - orig.due_s,
                                        benchlib.MIN_AGE_S)
                self.assertEqual(r.line({a.index: a for a in sched}),
                                 orig.line({}))

    def test_poisson_gaps(self):
        # Conditioned on its count, a Poisson process has exponential
        # gaps: mean 1/RATE and coefficient of variation near 1.
        gaps = []
        for seed in range(20):
            dues = [a.due_s for a in benchlib.make_schedule(seed, 25)]
            gaps += [b - a for a, b in zip(dues, dues[1:])]
        mean = sum(gaps) / len(gaps)
        sd = (sum((g - mean) ** 2 for g in gaps) / len(gaps)) ** 0.5
        self.assertAlmostEqual(mean, 1 / benchlib.RATE, delta=0.01)
        self.assertAlmostEqual(sd / mean, 1.0, delta=0.1)

if __name__ == "__main__":
    unittest.main()
