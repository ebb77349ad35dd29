"""Event enumeration for multi-stage drop-the-loser trials.

Every quantity the design engine reports (pairwise error, power under the
least favorable configuration, the distribution of the stopping stage, type
I error under the global null) is the probability of a union of mutually
exclusive trial paths.  A path fixes the arm dropped at each interim and
where arm 1 sits when the trial ends.  Its "did not stop at stage i" is
the signed pair "unconstrained - every survivor clears u_i", so a
path expands into signed rectangle events on a jointly normal vector, and
the enumerators below reduce an event system to a signed-weight list of
OrthantProblems.

Paths that are arm relabelings of one another integrate to the same value
whenever the relabeling preserves the true effects (and arm 1, when the
event is about arm 1).  Such paths are merged into a single problem with
an integer weight; the merge tests exact effect equality, so no collapsing
happens between arms whose effects merely happen to be close.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .covariance import (
    EffectConfig,
    StatCoord,
    TrialDesign,
    build_moment_problem,
    single,
)
from .mvn import OrthantProblem, ProbabilityEstimate, mvn_rectangle_prob

__all__ = [
    "PERMUTATION_CAP",
    "CapacityError",
    "EventProblemSet",
    "pwer_problem",
    "win_problems",
    "power_lfc_problems",
    "stop_stage_problems",
    "reject_problems",
    "global_null_typeI_problems",
    "set_probability",
    "total_probability",
]

# K! drop orders times 2 signed no-stop options per interim grows
# brutally; the cap keeps accidental K=12 calls from hanging the process.
PERMUTATION_CAP = 8


class CapacityError(ValueError):
    """Raised when the drop-order enumeration would be intractably large."""


@dataclass(frozen=True)
class EventProblemSet:
    """Rectangle problems whose signed-weight sum is one event probability."""

    stage: int
    problems: tuple[tuple[int, OrthantProblem], ...]

    def __post_init__(self):
        object.__setattr__(self, "problems",
                           tuple((int(w), p) for w, p in self.problems))
        if self.stage < 1:
            raise ValueError("stage indices start at 1")
        for w, p in self.problems:
            if w == 0:
                raise ValueError("weights are nonzero integers")
            if not isinstance(p, OrthantProblem):
                raise TypeError("problems must be OrthantProblem instances")


def _coord_key(c: StatCoord):
    # within a stage, arm-vs-arm contrasts before arms' own statistics; the
    # order fixes each problem's index in its set, and so its seed
    return (c.stage, c.arm_b == 0, c.arm_a, c.arm_b)


def _rect(constraints):
    """Sorted (coord, lo, hi) description, or None for an empty rectangle.

    Each coordinate appears at most once in `constraints`; an infinite
    boundary gives an (inf, inf) constraint, which empties the rectangle.
    """
    rect = tuple(sorted(constraints, key=lambda c: _coord_key(c[0])))
    if any(not lo < hi for _, lo, hi in rect):
        return None
    return rect


def _survivors(design: TrialDesign, order) -> tuple[int, ...]:
    return tuple(a for a in range(1, design.arms + 1) if a not in order)


def _path_rects(design: TrialDesign, order, end_stage: int, extras):
    """(sign, rect) descriptions of one path: drops follow `order`, no
    earlier stop, the trial ends at end_stage, plus event-specific extras.

    One walk over the order: stage i drops arm order[i - 1] from `alive`,
    the lowest of them (argmin contrasts), and lists "every survivor
    clears u_i".  The ending stage takes that list as its stop constraint
    (the final stage has none); each earlier stage takes the per-interim
    option "did not stop" = unconstrained (+1) minus all cross (-1).  Each
    combination of options is one rectangle, signed by the product.
    """
    alive = list(range(1, design.arms + 1))
    base, options, stop_cons = [], [], []
    for i, m in enumerate(order, start=1):
        alive.remove(m)
        base += [(StatCoord(a, m, i), 0.0, math.inf) for a in alive]
        crossings = [_crosses(design, a, i) for a in alive]
        if i < end_stage:
            options.append([(1, []), (-1, crossings)])
        else:
            stop_cons = crossings
    rects = ((math.prod(sign for sign, _ in combo),
              _rect([*base, *itertools.chain(*(c for _, c in combo)),
                     *stop_cons, *extras]))
             for combo in itertools.product(*options))
    return [(sign, rect) for sign, rect in rects if rect is not None]


def _symmetry_maps(deltas, fixed: frozenset[int]):
    """Arm relabelings that preserve the effect vector and the fixed arms.

    Returned as tuples indexed by arm (entry 0 unused).  Arms only trade
    places within groups of bit-identical effects, so collapsing is off for
    effects that merely round to the same value.
    """
    classes: dict[float, list[int]] = {}
    for a in range(1, len(deltas) + 1):
        if a in fixed:
            continue
        classes.setdefault(deltas[a - 1], []).append(a)
    members = list(classes.values())
    maps = []
    for combo in itertools.product(
            *(itertools.permutations(m) for m in members)):
        pi = list(range(len(deltas) + 1))
        for src_group, dst_group in zip(members, combo):
            for src, dst in zip(src_group, dst_group):
                pi[src] = dst
        maps.append(tuple(pi))
    return maps


def _relabeled_key(items, pi):
    out = []
    for c, lo, hi in items:
        key = (c.stage, c.arm_b == 0, pi[c.arm_a], pi[c.arm_b])
        out.append((key, lo, hi))
    out.sort()
    return tuple(out)


def _problem_from_key(design: TrialDesign, effects: EffectConfig, key):
    if not key:
        # certain event: keep a carrier coordinate the integrator prunes
        return build_moment_problem(design, effects, [single(1, 1)],
                                    [-math.inf], [math.inf])
    coords = [StatCoord(arm_a, arm_b, stage)
              for (stage, _, arm_a, arm_b), _, _ in key]
    lowers = [lo for _, lo, _ in key]
    uppers = [hi for _, _, hi in key]
    return build_moment_problem(design, effects, coords, lowers, uppers)


def _collapse(design: TrialDesign, effects: EffectConfig, paths, gamma):
    """Merge relabeling-equivalent (sign, rect) pairs into (weight, problem)
    pairs.

    Each rectangle's key is the lexicographic minimum of its description
    over the symmetry group, so two rectangles share a key exactly when one
    is an effect-preserving relabeling of the other.  No weight cancels to
    zero: a sign is -1 to the number of stages before the ending one that
    carry arms' own statistics (only the -1 term of _path_rects' per-interim
    option puts them there), and relabeling keeps stages.
    """
    table: dict = {}
    for sign, items in paths:
        key = min(_relabeled_key(items, pi) for pi in gamma)
        table[key] = table.get(key, 0) + sign
    return tuple((table[key], _problem_from_key(design, effects, key))
                 for key in sorted(table))


def _drops_before_decision(design: TrialDesign, stage: int) -> int:
    # a drop happens at every stage except the last
    return stage if stage < design.stages else design.stages - 1


def _crosses(design: TrialDesign, arm: int, stage: int):
    return (single(arm, stage), design.boundaries[stage - 1], math.inf)


# One generator per event family: for the ending stage j it yields each
# drop order with the extra constraints that order carries, and
# _path_rects adds the shared no-earlier-stop and end-at-stage constraints.
# The public docstrings below say what each event is; the win and reject
# events are about arm 1, the stop event about no arm.

def _stop_paths(design: TrialDesign, j: int):
    for perm in itertools.permutations(range(1, design.arms + 1),
                                       _drops_before_decision(design, j)):
        yield perm, ()


def _win_paths(design: TrialDesign, j: int):
    for perm in itertools.permutations(range(2, design.arms + 1),
                                       _drops_before_decision(design, j)):
        if j < design.stages:
            yield perm, [(StatCoord(1, s, j), 0.0, math.inf)
                         for s in _survivors(design, perm) if s != 1]
        else:
            yield perm, [_crosses(design, 1, j)]


def _reject_paths(design: TrialDesign, j: int):
    rivals = range(2, design.arms + 1)
    if j < design.stages:
        # arm 1 survives the stage-j drop; its crossing is part of the
        # all-survivors-cross stop constraint
        for perm in itertools.permutations(rivals, j):
            yield perm, ()
        for perm in itertools.permutations(rivals, j - 1):
            yield perm + (1,), [_crosses(design, 1, j)]
    else:
        for perm in itertools.permutations(rivals, j - 1):
            yield perm, [_crosses(design, 1, j)]


def _stage_rects(design: TrialDesign, paths):
    """Raw (sign, rect) pairs of one event family, one tuple per stage.

    Over one stage's pairs, the signs of the rectangles a statistic path
    satisfies sum to the indicator of that stage's event, up to boundary
    ties.
    """
    for j in range(1, design.stages + 1):
        yield tuple(term for order, extras in paths(design, j)
                    for term in _path_rects(design, order, j, extras))


def _event_sets(design: TrialDesign, effects: EffectConfig, paths,
                fixed: frozenset[int]) -> list[EventProblemSet]:
    """Collapsed per-stage problem sets of one event family; relabelings
    never move the `fixed` arms."""
    if design.arms > PERMUTATION_CAP:
        raise CapacityError(f"{design.arms} arms exceeds the enumeration "
                            f"cap of {PERMUTATION_CAP}")
    if len(effects.deltas) != design.arms:
        raise ValueError("effects length must match the number of arms")
    gamma = _symmetry_maps(effects.deltas, fixed)
    return [EventProblemSet(j, _collapse(design, effects, rects, gamma))
            for j, rects in enumerate(_stage_rects(design, paths), start=1)]


def pwer_problem(design: TrialDesign,
                 effects: EffectConfig | None = None) -> OrthantProblem:
    """Marginal no-crossing rectangle for arm 1, under the global null by
    default.

    The pairwise error rate is 1 - P(this problem): the chance the arm's
    statistic ever clears its boundary when delta = 0, ignoring selection.
    Selection only removes crossing opportunities, so this bounds the
    realized per-arm type I error at every effect configuration.  Under
    other effects it is the chance arm 1 never crosses.  The engine
    computes the same probability by quadrature (calibrate._no_crossing);
    this rectangle form is the independent check on it.
    """
    if effects is None:
        effects = EffectConfig.global_null(design.arms)
    stages = design.stages
    coords = [single(1, j) for j in range(1, stages + 1)]
    return build_moment_problem(design, effects, coords,
                                [-math.inf] * stages, list(design.boundaries))


def win_problems(design: TrialDesign,
                 effects: EffectConfig) -> list[EventProblemSet]:
    """Per-stage events: trial ends at that stage with arm 1 recommended
    (it survived every drop so far, cleared the boundary, and beat every
    other crossing survivor)."""
    return _event_sets(design, effects, _win_paths, frozenset((1,)))


def power_lfc_problems(design: TrialDesign, theta_prime: float,
                       theta_zero: float) -> list[EventProblemSet]:
    """Win events for arm 1 under the least favorable configuration
    (arm 1 at theta_prime, all rivals at theta_zero)."""
    if not theta_prime > theta_zero:
        raise ValueError("theta_prime must exceed theta_zero")
    effects = EffectConfig.least_favorable(design.arms, theta_prime,
                                           theta_zero)
    return win_problems(design, effects)


def stop_stage_problems(design: TrialDesign,
                        effects: EffectConfig) -> list[EventProblemSet]:
    """Per-stage events: the trial ends at that stage.  The stage events
    partition the sample space, so the probabilities sum to one."""
    return _event_sets(design, effects, _stop_paths, frozenset())


def reject_problems(design: TrialDesign,
                    effects: EffectConfig) -> list[EventProblemSet]:
    """Per-stage events: the trial ends at that stage and arm 1 clears the
    boundary there.  Arm 1 may be a crossing survivor or the arm dropped at
    the ending stage; both ways its null is rejected."""
    return _event_sets(design, effects, _reject_paths, frozenset((1,)))


def global_null_typeI_problems(design: TrialDesign) -> list[EventProblemSet]:
    """Reject events for arm 1 when every effect is zero; summed over
    stages this is the realized per-arm type I error under the global null."""
    effects = EffectConfig.global_null(design.arms)
    return reject_problems(design, effects)


def _weighted_sum(terms) -> ProbabilityEstimate:
    """Sum of (weight, estimate) pairs; converged if every term converged.

    Bounds combine in quadrature, sqrt(sum (w * bound)^2): every problem
    integrates with its own (seed, stage, idx) sub-seed, so the terms'
    errors are independent, and bounds that are each 3 times an estimated
    standard error add as 3 times the joint one.  Each estimate has 11
    degrees of freedom, so neither is a true three-sigma bound (see
    mvn.ProbabilityEstimate).
    """
    value = 0.0
    square = 0.0
    evaluations = 0
    converged = True
    for w, est in terms:
        value += w * est.value
        square += (w * est.error_bound) ** 2
        evaluations += est.evaluations
        converged = converged and est.converged
    return ProbabilityEstimate(value, math.sqrt(square), evaluations,
                               converged)


def set_probability(pset: EventProblemSet, *, target_abs_error: float,
                    seed: int = 0) -> ProbabilityEstimate:
    """Weighted probability of one event set.

    Problems are integrated in their stored (canonically sorted) order, each
    with the integration seed (seed, stage, index), so the estimate is
    independent of any execution schedule.
    """
    return _weighted_sum(
        (w, mvn_rectangle_prob(prob, target_abs_error=target_abs_error,
                               seed=(seed, pset.stage, idx)))
        for idx, (w, prob) in enumerate(pset.problems))


def total_probability(psets, *, target_abs_error: float,
                      seed: int = 0) -> ProbabilityEstimate:
    """Sum of set_probability over one family of per-stage event sets."""
    return _weighted_sum(
        (1, set_probability(pset, target_abs_error=target_abs_error,
                            seed=seed))
        for pset in psets)
