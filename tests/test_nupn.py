"""Cross-validation of the engine against the standalone fresh-name net."""

import random

from dbnet.semantics import enabled_firings, fire

from nupn_reference import reference_nu_demo


def canonical_engine_marking(snap, rename: dict) -> frozenset:
    items = []
    ms = snap.marking.tokens("pool")
    for token in sorted(ms.distinct(), key=lambda tok: tuple(v.payload for v in tok)):
        for v in token:
            if v.payload not in rename:
                rename[v.payload] = len(rename)
    for token, count in sorted(ms.items(), key=lambda it: tuple(v.payload for v in it[0])):
        items.append(("pool", tuple(rename[v.payload] for v in token), count))
    return frozenset(items)


def run_pair(nu_demo_scenario, seed: int, steps: int = 30):
    """Drive engine and reference with the same seed; return the canonical
    state sequences of both."""
    net = nu_demo_scenario.net
    snap = nu_demo_scenario.initial
    ref = reference_nu_demo()

    engine_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    engine_seq = []
    ref_seq = []
    engine_rename: dict = {}
    ref_rename: dict = {}

    engine_seq.append(canonical_engine_marking(snap, engine_rename))
    ref_seq.append(ref.canonical_marking(ref_rename))

    for _ in range(steps):
        engine_firings = enabled_firings(net, snap, {})
        ref_firings = ref.enabled()
        assert len(engine_firings) == len(ref_firings), "enabled sets diverge"
        assert [t.name for t, _ in engine_firings] == [t.name for t, _ in ref_firings]
        idx = engine_rng.randrange(len(engine_firings))
        assert idx == ref_rng.randrange(len(ref_firings))
        t, sigma = engine_firings[idx]
        snap, committed = fire(net, snap, t, sigma)
        assert committed  # no data logic, nothing can roll back
        rt, rb = ref_firings[idx]
        ref.fire(rt, rb)
        engine_seq.append(canonical_engine_marking(snap, engine_rename))
        ref_seq.append(ref.canonical_marking(ref_rename))
    return engine_seq, ref_seq


def test_token_game_matches_reference_on_seeded_runs(nu_demo_scenario):
    for seed in range(50):
        engine_seq, ref_seq = run_pair(nu_demo_scenario, seed)
        assert engine_seq == ref_seq, f"divergence at seed {seed}"


def test_fresh_names_never_collide_with_marking(nu_demo_scenario):
    net = nu_demo_scenario.net
    snap = nu_demo_scenario.initial
    rng = random.Random(123)
    for _ in range(60):
        firings = enabled_firings(net, snap, {})
        t, sigma = firings[rng.randrange(len(firings))]
        for v in t.fresh_vars():
            assert sigma[v] not in snap.marking.active_domain(v.type_name)
        snap, _ = fire(net, snap, t, sigma)

