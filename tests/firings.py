"""Re-fire the edges of a stored state. `build_lts` counts edges but does not
keep them; `enabled_firings` and `fire` are deterministic, so a state's edges
are recovered by firing it again."""

from dbnet.semantics import enabled_firings, fire


def successors(net, snap, domains):
    """Yield (transition, binding, committed, successor) for every enabled
    firing of `snap`, in the order `build_lts` fires them."""
    for t, sigma in enabled_firings(net, snap, domains):
        snap2, committed = fire(net, snap, t, sigma)
        yield t, sigma, committed, snap2
