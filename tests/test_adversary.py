"""Block assembly: maximality, capacity, policy order, seeded determinism."""

import json
import math

import pytest
from hypothesis import example, given, strategies as st

from feemarket import (
    MechanismParams,
    Scenario,
    SeededRandom,
    SplitMix64,
    TipPriority,
    Transaction,
    ValueAscending,
    ValueDescending,
    block_rng,
    run_price_based,
    select_block,
)
from feemarket.adversary import policy_from_config, policy_to_config


def txs(*specs):
    return [
        Transaction(id=i, arrival=1, size=(q,) if isinstance(q, int) else q, unit_value=v)
        for i, (q, v) in enumerate(specs)
    ]


def assert_maximal(eligible, capacity, chosen_ids):
    residual = list(capacity)
    by_id = {t.id: t for t in eligible}
    for cid in chosen_ids:
        for j, q in enumerate(by_id[cid].size):
            residual[j] -= q
    assert all(r >= -1e-9 for r in residual)
    for t in eligible:
        if t.id in chosen_ids:
            continue
        assert any(t.size[j] > residual[j] + 1e-9 for j in range(len(residual)))


def test_everything_fits():
    es = txs((100, 1.0), (100, 2.0))
    for policy in (ValueAscending(), ValueDescending(), TipPriority({0: 5.0})):
        assert sorted(select_block(es, (200.0,), policy)) == [0, 1]


def test_tip_priority_blocks_better_value():
    # low-value 120-size tx with the high tip crowds out the 100-size tx
    es = txs((120, 1.0), (100, 5.0))
    chosen = select_block(es, (200.0,), TipPriority({0: 10.0}))
    assert chosen == [0]
    assert_maximal(es, (200.0,), chosen)


def test_empty():
    assert select_block([], (100.0,), ValueAscending()) == []


def test_value_orders():
    es = txs((10, 1.0), (10, 3.0), (10, 2.0))
    assert select_block(es, (15.0,), ValueAscending()) == [0]
    assert select_block(es, (15.0,), ValueDescending()) == [1]


def test_completion_pass_fills_residual():
    # descending order admits 90 first, skips 20? no: 90 then 20 fits; force a
    # skip: order high value huge size, then small ones picked up afterwards
    es = txs((90, 5.0), (60, 4.0), (10, 3.0))
    chosen = select_block(es, (100.0,), ValueDescending())
    assert chosen == [0, 2]
    assert_maximal(es, (100.0,), chosen)


def test_oversized_skipped_silently():
    es = txs((300, 9.0), (50, 1.0))
    chosen = select_block(es, (200.0,), ValueDescending())
    assert chosen == [1]


def test_maximality_random_cases():
    import random

    rng = random.Random(3)
    for _ in range(200):
        es = txs(*[(rng.randint(1, 40), rng.uniform(0.5, 4.0)) for _ in range(rng.randint(0, 12))])
        cap = (float(rng.randint(20, 80)),)
        for policy in (ValueAscending(), ValueDescending(), TipPriority({i: rng.random() for i in range(12)})):
            assert_maximal(es, cap, select_block(es, cap, policy))


def test_multi_resource_fit():
    es = [
        Transaction(id=0, arrival=1, size=(5, 5), unit_value=2.0),
        Transaction(id=1, arrival=1, size=(5, 0), unit_value=1.0),
    ]
    chosen = select_block(es, (10.0, 5.0), ValueDescending())
    assert chosen == [0, 1]
    chosen = select_block(es, (6.0, 5.0), ValueDescending())
    assert chosen == [0]


def test_seeded_random_deterministic():
    es = txs(*[(10, float(v)) for v in range(1, 9)])
    rng1 = block_rng(seed=7, block_index=3)
    rng2 = block_rng(seed=7, block_index=3)
    a = select_block(es, (40.0,), SeededRandom(), rng1)
    b = select_block(es, (40.0,), SeededRandom(), rng2)
    assert a == b
    c = select_block(es, (40.0,), SeededRandom(), block_rng(seed=7, block_index=4))
    assert_maximal(es, (40.0,), c)


@pytest.mark.parametrize("policy", [ValueAscending(), ValueDescending(), TipPriority({0: 1.0})])
def test_resource_count_checked_after_block_fills(policy):
    # tx 0 fills the block first under every policy; the two-resource tx 1
    # is never fit-tested but is still invalid input.
    es = [
        Transaction(id=0, arrival=1, size=(10,), unit_value=1.0),
        Transaction(id=1, arrival=1, size=(5, 5), unit_value=1.0),
    ]
    with pytest.raises(ValueError, match="tx 1 has 2 resources, capacity has 1"):
        select_block(es, (10.0,), policy)


def test_seeded_random_requires_rng():
    with pytest.raises(ValueError):
        select_block(txs((1, 1.0)), (10.0,), SeededRandom())


def test_splitmix_stable_stream():
    # frozen golden values pin the PRNG across platforms and versions
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_policy_config_roundtrip():
    for p in (ValueAscending(), ValueDescending(), SeededRandom(), TipPriority({3: 1.5})):
        assert policy_from_config(policy_to_config(p)) == p
    with pytest.raises(ValueError):
        policy_from_config({"policy": "nope"})


@given(
    st.dictionaries(
        st.one_of(st.integers(), st.booleans()),
        st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
    )
)
@example({0: 10**400, 1: -(10**400), 2: 2**53 + 1})
@example({True: 1.0, False: -2})
@example({-7: 1.5, 7: 0.0})
def test_every_tip_priority_round_trips(tips):
    """Every ``TipPriority`` the library accepts comes back equal from its
    config, also through JSON text: an int tip beyond float range stays an
    int, a bool key is written as the id it equals and a negative id is a
    tip key like any other."""
    policy = TipPriority(tips)
    config = policy_to_config(policy)
    assert policy_from_config(config) == policy
    assert policy_from_config(json.loads(json.dumps(config))) == policy


def test_nan_tip_config_rejected():
    """A NaN tip would make the tip order depend on the values and the
    pool's layout, which it must ignore.  A config carrying one (json reads
    NaN) is rejected, and so is a ``TipPriority`` built with one."""
    config = json.loads('{"policy": "tip", "tips": {"0": NaN, "1": 1.0, "2": 2.0}}')
    with pytest.raises(ValueError, match="tx 0: tip must be finite, got nan"):
        policy_from_config(config)
    with pytest.raises(ValueError, match="tx 0: tip must be finite, got nan"):
        TipPriority({0: math.nan, 1: 1.0, 2: 2.0})


@pytest.mark.parametrize("tips,message", [
    ({"1": 5.0}, "tip keys must be transaction ids, got '1'"),
    ({1.0: 5.0}, "tip keys must be transaction ids, got 1.0"),
    ({0: "x"}, "tx 0: tip must be a number, got 'x'"),
    ({0: True}, "tx 0: tip must be a number, got True"),
    ({0: None}, "tx 0: tip must be a number, got None"),
    ({0: 1.0, 1: -math.inf}, "tx 1: tip must be finite, got -inf"),
    ([1.0], "tips must map transaction ids to tips, got [1.0]"),
    (None, "tips must map transaction ids to tips, got None"),
])
def test_tip_priority_checks_its_tips(tips, message):
    with pytest.raises(ValueError) as exc:
        TipPriority(tips)
    assert str(exc.value) == message


def test_tip_priority_takes_int_tips_beyond_float_range():
    # math.isfinite would raise OverflowError on this tip
    eligible = txs((10, 1.0), (10, 2.0))
    assert select_block(eligible, (10.0,), TipPriority({0: 10**400})) == [0]


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_tip_rejected(bad):
    with pytest.raises(ValueError, match="tip must be finite"):
        policy_from_config({"policy": "tip", "tips": {"0": 1.0, "1": bad}})


@pytest.mark.parametrize("bad", [True, "1.0", None, [1.0]])
def test_config_tip_must_be_a_number(bad):
    with pytest.raises(ValueError) as exc:
        policy_from_config({"policy": "tip", "tips": {"0": 1.0, "1": bad}})
    assert str(exc.value) == f"tx 1: tip must be a number, got {bad!r}"


def test_tips_must_be_a_mapping():
    with pytest.raises(ValueError, match="tips must map"):
        policy_from_config({"policy": "tip", "tips": [1.0]})


@pytest.mark.parametrize(
    "key", ["1_0", " 3 ", "+3", "\u0663", "-\u0663", "3.0", "", "-", "--1", "1-"]
)
def test_tip_key_must_be_decimal_id(key):
    """int() reads "1_0" as 10, " 3 " and "+3" as 3 and an Arabic-Indic
    three as 3; a tip key must be ASCII digits only, after at most one
    minus sign."""
    with pytest.raises(ValueError, match="tip keys must be decimal transaction ids"):
        policy_from_config({"policy": "tip", "tips": {"0": 1.0, key: 2.0}})


def test_decimal_tip_keys_accepted():
    config = {"policy": "tip", "tips": {"0": 1.0, "10": 2.0, "12345678901234567890": 0.5, "-3": 4}}
    tips = {0: 1.0, 10: 2.0, 12345678901234567890: 0.5, -3: 4}
    assert policy_from_config(config).tips == tips


@pytest.mark.parametrize("tips,message", [
    ({"7": 1.0, "07": 2.0}, "tip key '07' repeats tx 7"),
    ({"0": 1.0, "-0": 2.0}, "tip key '-0' repeats tx 0"),
    ({"000": 1.0, "1": 1.0, "0": 1.0}, "tip key '0' repeats tx 0"),
])
def test_tip_keys_naming_one_id_rejected(tips, message):
    """"7" and "07" both name id 7; one of the two tips would be dropped."""
    with pytest.raises(ValueError) as exc:
        policy_from_config({"policy": "tip", "tips": tips})
    assert str(exc.value) == message


@given(st.integers(0, 2**64))
@example(-1)
@example(2**200)
def test_every_seeded_random_round_trips(seed):
    """The random order's seed is its policy's, so the policy config
    carries it, also through JSON text."""
    policy = SeededRandom(seed=seed)
    config = policy_to_config(policy)
    assert config == {"policy": "random", "seed": seed}
    assert policy_from_config(config) == policy
    assert policy_from_config(json.loads(json.dumps(config))) == policy


def test_random_config_without_seed_reads_as_seed_0():
    # seed 0 is what every stream without a seed of its own used to run at
    assert policy_from_config({"policy": "random"}) == SeededRandom(seed=0)
    assert policy_from_config({"policy": "random", "seed": 7.0}) == SeededRandom(seed=7)
    assert type(policy_from_config({"policy": "random", "seed": 7.0}).seed) is int


@pytest.mark.parametrize("bad", [True, False, 7.5, "7", None, [7], math.inf, math.nan])
def test_config_seed_must_be_an_integer(bad):
    with pytest.raises(ValueError) as exc:
        policy_from_config({"policy": "random", "seed": bad})
    assert str(exc.value) == f"seed must be an integer, got {bad!r}"


@pytest.mark.parametrize("bad", [True, 7.0, "7", None])
def test_seeded_random_checks_its_seed(bad):
    with pytest.raises(ValueError) as exc:
        SeededRandom(seed=bad)
    assert str(exc.value) == f"seed must be an integer, got {bad!r}"


@pytest.mark.parametrize("config,key", [
    ({"policy": "value_asc", "seed": 1}, "seed"),
    ({"policy": "tip", "tips": {}, "seed": 1}, "seed"),
    ({"policy": "random", "seed": 1, "tips": {}}, "tips"),
])
def test_seed_belongs_to_the_random_policy_only(config, key):
    with pytest.raises(ValueError) as exc:
        policy_from_config(config)
    assert str(exc.value) == f"policy config has unknown key {key!r}"


def test_policy_seed_drives_the_block_stream():
    """The engine derives block t's stream from the policy's seed, so two
    seeds give two orders on one scenario and one seed gives one order."""
    stream = Scenario(txs(*[(30, 1.0 + i / 7) for i in range(40)]))
    params = MechanismParams(B=100.0, c=2.0, eta=0.125, p_min=1.0, p_1=1.0)

    def executed(seed):
        run = run_price_based(stream, params, SeededRandom(seed=seed), 8)
        return [r.executed for r in run.trace.records]

    assert executed(3) == executed(3)
    assert executed(3) != executed(4)
    first = select_block(stream.transactions, (200.0,), SeededRandom(), block_rng(3, 1))
    assert [i for i, _f in executed(3)[0]] == first
