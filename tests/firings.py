"""Firing helpers shared by the tests.

`build_lts` counts edges but does not keep them; `enabled_firings` and `fire`
are deterministic, so a state's edges are recovered by firing it again.
`action_net` wraps a bare action in a one-transition net, so that its
commit-or-rollback decision is made by `fire`, the rule the engine runs.
"""

from dbnet.control import ActionBinding, DbNet, Place, Transition
from dbnet.datalogic import DataLogicLayer
from dbnet.datatypes import builtin_catalog
from dbnet.multiset import Multiset
from dbnet.semantics import enabled_firings, fire, make_snapshot

TOKEN = Multiset([()])


def successors(net, snap, domains):
    """Yield (transition, binding, committed, successor) for every enabled
    firing of `snap`, in the order `build_lts` fires them."""
    for t, sigma in enabled_firings(net, snap, domains):
        snap2, committed = fire(net, snap, t, sigma)
        yield t, sigma, committed, snap2


def action_net(layer, action, theta, db):
    """A net whose one transition `t` invokes `action` with theta's values
    as literal arguments, and its snapshot over `db`. Firing `t` under the
    empty binding moves the token in `start` to `done` when the update
    commits and to `failed` when it rolls back."""
    net = DbNet(
        builtin_catalog(),
        layer,
        DataLogicLayer(actions=[action]),
        [Place(name, "control", ()) for name in ("start", "done", "failed")],
        [
            Transition(
                "t",
                inputs={"start": TOKEN},
                outputs={"done": TOKEN},
                rollbacks={"failed": TOKEN},
                action=ActionBinding(action.name, tuple(theta[p] for p in action.params)),
            )
        ],
    )
    return net, make_snapshot(net, db, {"start": TOKEN})


def fire_action(layer, action, theta, db):
    """Fire `action_net`'s transition; returns (successor, committed) after
    checking that the token took the flow that `committed` names."""
    net, snap = action_net(layer, action, theta, db)
    after, committed = fire(net, snap, net.transitions["t"], {})
    assert after.marking.tokens("done" if committed else "failed") == TOKEN
    assert not after.marking.tokens("start")
    return after, committed
