"""The committed-table check of the quick benches: counts and labels
must match, timings, rates and thread-scheduled columns need not."""

from benchmarks.check_tables import differences

TABLE = """\
      pipeline   wall s   reads  writes
   synchronous    0.513       1      58
"""


def test_timings_and_rates_may_move():
    fresh = TABLE.replace("0.513", "0.498")
    assert differences("t.txt", TABLE, fresh) == []
    assert differences("t.txt", "a 1.28% 3.0x\n", "a 0.89% 2.5x\n") == []


def test_a_count_may_not():
    fresh = TABLE.replace("58", "57")
    (found,) = differences("t.txt", TABLE, fresh)
    assert "'58' -> '57'" in found


def test_nor_a_label_or_the_shape():
    assert differences("t.txt", TABLE, TABLE.replace("synchronous", "sync"))
    assert differences("t.txt", TABLE, TABLE + "speedup: 2x\n")
    assert differences("t.txt", "a b\n", "a b c\n")


def test_a_volatile_column_is_not_compared():
    old = " depth   wall s  demand reads  prefetch hits\n     3   0.05  6  6\n"
    new = old.replace("6  6", "6  5")
    assert differences("ablation_prefetch.txt", old, new) == []
    assert differences("other.txt", old, new)


def test_a_timing_table_only_keeps_its_length():
    old = "x 1400 ns; measured 245 ns\n"
    assert differences("kernel_throughput.txt", old, "y 1 ns; z 2 ns\n") == []
    assert differences("kernel_throughput.txt", old, old + old)
