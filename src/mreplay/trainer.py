"""Session loop for continual score regression with feature replay.

Per session: train on the session's few-shot split (the base session also
gets the fine-tune pool). Each step always minimizes the regression loss
on the current batch; once the memory bank is non-empty it adds

* a projector alignment loss (current features vs projected frozen-encoder
  features),
* a replay regression loss on projected stored features,
* the graph regularizer over the joint replayed/current batch,

and takes one Adam step on the weighted sum. The step calls
``autodiff``'s array-level halves and adds each gradient straight into
its component's flat Adam gradient. At session end the stored
features are refreshed through the projector exactly once, then the
finished session's features are stored by score-ordered uniform selection.

Every method runs this one loop, which reads the ablation flags straight
off ``TrainConfig``; the method string decides only what no flag can
express:

* ``magr``: everything above, minus whatever the flags switch off,
* ``sequential-ft``: no memory at all,
* ``joint``: no memory, one session over the union of all training splits,
* ``replay-raw`` and ``replay-feature-naive``: ``magr`` with ``no_mp``,
  ``no_ii_gr`` and ``no_j_gr`` set, so stored entries are never projected or
  refreshed and the graph term is off; ``replay-raw`` stores raw inputs and
  re-encodes them at every replay step.

Until session 1 ends the bank is empty, so its epochs never read the
``SESSION_1_FREE`` fields. ``run_many`` trains session 1 once per key and
plan, the config as ``sequential-ft`` with those fields at their defaults,
and keeps it in the plan's ``memo``, so later calls on the same plan reuse
it; each config goes on from a deep copy of that state. The memo also
keeps the ranks of the test truths per scaler and ``held_out_only``, so
``score_sets``, the one scorer of a bundle (``mreplay eval`` and the
scatter plot call it too), ranks only the predictions of a run's rows.

The configs of one ``run_many`` call that share a first session and the
shapes and sub-steps of a step (``_lane_key``: the kind of replay, ``b1``
and ``m``), such as ``mreplay ablate``'s variants, are lanes of one group
and train their later sessions in lockstep: one ``_train_step`` runs each
sub-step once over the lanes that need it, on stacks of their arrays,
which ``autodiff``'s halves take beside 2-D arrays. Each lane keeps its
own generators, draws, bank, early stopping and evaluation, and its
results are bit-identical to its own ``run_continual``. A single run is a
group of one, on 2-D arrays. One session loop (``_train_lanes``) trains a
group's lanes, and one run loop (``_run_group``) runs a group's configs.
If a group raises, its configs run again one by one, and if none of them
raises alone, a RuntimeError says the lanes failed.

On platforms with ``os.fork`` and ``os.sched_getaffinity`` (Linux), one
``run_many`` call trains all its keys' first sessions, then runs its
configs in one pool of forked worker processes, one per CPU of the
affinity mask and at most one per config. Each worker pickles its results
onto a pipe, and they come back in config order, bit-identical to a serial
run; each worker runs the lane groups of its configs and sends a group's
results when the whole group is done, so a worker that dies while a group
trains loses the results of all its lanes. Elsewhere, or with one CPU or
one config, they run in-process; ``run_continual``, whose ``on_session``
hook runs in the calling process, always does. No option sets the worker
count or the lanes; ``taskset`` limits the workers.
"""
from __future__ import annotations

import copy
import math
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import memory as mem
from .data import ScoreScaler, SessionPlan, check_config
from .metrics import EvalMatrix, centred_ranks, rho_aft, rho_fwt, spearman
from .models import (BundleSpec, MlpSpec, ModelBundle, check_width, components,
                     encode, encoder_params, freeze_copy, init_bundle, make_rng,
                     predict, project)

METHODS = ("magr", "sequential-ft", "joint", "replay-raw", "replay-feature-naive")
MEMORYLESS = ("sequential-ft", "joint")
REPLAY_BASELINES = ("replay-raw", "replay-feature-naive")

TERMS = ("l_d", "l_m", "l_p", "l_r")

STREAM_ORDER = 5
STREAM_REPLAY = 6
STREAM_EPS = 7
STREAM_STORE = 9

ABLATION_FLAGS = ("no_mp", "no_residual", "no_ii_gr", "no_j_gr", "mse_gr",
                  "random_sampling", "reverse_kl", "abs_score_distance")
SESSION_1_FREE = ("m", *ABLATION_FLAGS, "lambda_p", "lambda_r", "b1", "lm_stop_grad",
                  "stratified_replay", "classic_forgetting")
# the choices of method and the least value of each numeric TrainConfig
# field; lr's is the least float above 0
TRAIN_BOUNDS = {"method": METHODS, "lambda_p": 0, "lambda_r": 0, "b1": 1, "b2": 1,
                "epochs": 1, "patience": 1, "min_delta": 0, "m": 1, "lr": math.ulp(0.0),
                "weight_decay": 0, "seed": 0}


@dataclass(frozen=True)
class TrainConfig:
    method: str = "magr"
    lambda_p: float = 1.0
    lambda_r: float = 1.0
    b1: int = 5
    b2: int = 3
    epochs: int = 50
    patience: int = 10
    min_delta: float = 1e-5
    m: int = 10
    lr: float = 1e-4
    weight_decay: float = 1e-4
    no_mp: bool = False
    no_residual: bool = False
    no_ii_gr: bool = False
    no_j_gr: bool = False
    mse_gr: bool = False
    random_sampling: bool = False
    reverse_kl: bool = False
    abs_score_distance: bool = False
    lm_stop_grad: bool = False
    stratified_replay: bool = False
    classic_forgetting: bool = False
    held_out_only: bool = False
    online: bool = False
    seed: int = 0
    encoder_widths: tuple[int, ...] = (32, 64, 16)
    projector_widths: tuple[int, ...] = (16, 16, 16)
    trunk_widths: tuple[int, ...] = (16, 8)

    def __post_init__(self):
        check_config(self, "train", TRAIN_BOUNDS)
        if self.no_mp and self.no_residual:
            raise ValueError("train field 'no_residual' is True, but no_mp removes "
                             "the projector it would change")

    @property
    def effective_epochs(self) -> int:
        return 1 if self.online else self.epochs


def _preset(config: TrainConfig) -> TrainConfig:
    """The config with the replay baselines' flags set. ``no_mp`` removes
    the projector, so ``no_residual`` no longer applies."""
    if config.method in REPLAY_BASELINES:
        return replace(config, no_mp=True, no_residual=False,
                       no_ii_gr=True, no_j_gr=True)
    return config


@dataclass
class TrainState:
    """Everything a run carries from session to session. A deep copy or an
    unpickled state trains on: a step needs each parameter's value and
    gradient to view its component's Adam buffer and gradient, which
    neither keeps, so ``__setstate__`` gives the buffer memory of its own
    and rebinds the parameters to both. A shallow ``copy.copy`` keeps the
    views, shared with the original."""

    bundle: ModelBundle
    bank: mem.MemoryBank
    adam: dict[str, ad.AdamState]
    rngs: dict[str, np.random.Generator]
    session: int = 0

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name, params in components(self.bundle).items():
            adam = self.adam[name]
            if any(p.value.base is not adam.buffer for p in params.values()):
                adam.buffer = adam.buffer.copy()
                ad.adam_bind(params, adam)


@dataclass
class SessionReport:
    """One session of a run: its epochs and steps, each step's loss terms,
    each epoch's mean total, and ``wall_seconds`` from the start of the
    session to its bank update. A laned session's is its group's: it runs
    from the start of the group's session to this lane's end, and covers
    the other lanes' steps until then."""

    session: int
    epochs_run: int
    steps: int
    step_terms: list[dict]
    epoch_losses: list[float]
    wall_seconds: float


@dataclass
class RunResult:
    method: str
    seed: int
    n_sessions: int
    matrix: EvalMatrix
    reports: list[SessionReport]
    summary: dict
    state: TrainState


def bundle_spec_for(config: TrainConfig, input_width: int,
                    feature_mode: bool) -> BundleSpec:
    """The config's widths with the data's input width as the first one.
    In feature mode the inputs are the features, so the projector's ends
    and the trunk's input take the input width and there is no encoder."""
    if feature_mode:
        d = input_width
        return BundleSpec(encoder=None,
                          projector=MlpSpec((d, *config.projector_widths[1:-1], d)),
                          trunk=MlpSpec((d, *config.trunk_widths[1:])))
    return BundleSpec(encoder=MlpSpec((input_width, *config.encoder_widths[1:])),
                      projector=MlpSpec(tuple(config.projector_widths)),
                      trunk=MlpSpec(tuple(config.trunk_widths)))


class PlanError(ValueError):
    pass


def check_test_sets(plan: SessionPlan, held_out_only: bool) -> None:
    """Reject a plan with a session whose test set, ``train + held_out`` or
    with ``held_out_only`` ``held_out`` alone, has fewer than the 2 samples
    a rank correlation needs; every method scores every session's."""
    for s in plan.sessions:
        n = len(s.held_out) + (0 if held_out_only else len(s.train))
        if n < 2:
            raise PlanError(f"session {s.session} has {n} test sample{'s' * (n != 1)} "
                            f"with held_out_only={held_out_only}; a rank "
                            f"correlation needs at least 2")


def new_state(config: TrainConfig, input_width: int,
              feature_mode: bool = False) -> TrainState:
    spec = bundle_spec_for(config, input_width, feature_mode)
    return fresh_state(init_bundle(spec, config.seed), config)


def fresh_state(bundle: ModelBundle, config: TrainConfig) -> TrainState:
    """A state that has trained no session, around ``bundle``: fresh Adam
    state over its parameters, an empty bank and the config's RNG streams."""
    adam = {name: ad.adam_init(params, lr=config.lr,
                               weight_decay=config.weight_decay)
            for name, params in components(bundle).items()}
    rngs = {
        "order": make_rng(config.seed, STREAM_ORDER),
        "replay": make_rng(config.seed, STREAM_REPLAY),
        "eps": make_rng(config.seed, STREAM_EPS),
        "store": make_rng(config.seed, STREAM_STORE),
    }
    return TrainState(bundle=bundle, bank=mem.MemoryBank(capacity=config.m),
                      adam=adam, rngs=rngs)


class _Lanes:
    """The lanes ``_train_step`` steps together, one group's at one session:
    which lanes run each sub-step, their live components, and the frozen
    encoders of the projected lanes. All of it holds while the same lanes
    step. One lane uses its own Adam states, viewed anew each step, and
    2-D arrays. Several lanes have each component's states stacked by
    ``autodiff.adam_stack``, the projector's over the projected lanes
    only, until ``unstack`` gives every lane its own state back."""

    def __init__(self, states: list, configs: list):
        config = configs[0]
        self.states, self.stacked = states, len(states) > 1
        self.every = every = tuple(range(len(states)))
        self.memory = config.method not in MEMORYLESS and states[0].bank.size > 0
        self.raw = config.method == "replay-raw"

        def lanes(keep, among=every) -> tuple:
            return tuple(i for i in among if self.memory and keep(configs[i]))

        self.projected = lanes(lambda c: not c.no_mp)
        self.residual = lanes(lambda c: not c.no_residual, self.projected)
        self.graphed = lanes(lambda c: not (c.no_j_gr and c.no_ii_gr))
        # h_old comes through trainable weights (the encoder under
        # replay-raw, the projector otherwise), and needs a gradient where a
        # term other than a stopped score reads it
        encoder = states[0].bundle.encoder is not None
        self.old = every if self.raw and encoder else () if self.raw else self.projected
        unstopped = lanes(lambda c: not c.lm_stop_grad)
        self.needs = tuple(i for i in self.old if i in self.graphed or i in unstopped)
        self.through = tuple(i for i in self.needs if i in unstopped)
        self.both = tuple(i for i in self.graphed if i in self.needs)

        def per_lane(values: list):
            if self.stacked:
                return np.array(values).reshape(-1, 1, 1)
            return values[0] if values else None

        self.weights = {"l_p": per_lane([configs[i].lambda_p for i in self.projected]),
                        "l_r": per_lane([configs[i].lambda_r for i in self.graphed])}
        graph_flags = [(not c.abs_score_distance, not c.no_j_gr, not c.no_ii_gr, c.mse_gr,
                        c.reverse_kl) for c in (configs[i] for i in self.graphed)]
        self.graph_flags = tuple(tuple(f) if self.stacked else f[0]
                                 for f in zip(*graph_flags)) or None
        # the order the components are updated in: projector, regressor, encoder
        self.live = {name: self.projected if name == "projector" else every
                     for name in components(states[0].bundle)
                     if name != "projector" or self.projected}
        frozen = [encoder_params(states[i].bundle, frozen=True) for i in self.projected]
        self.frozen = None if not frozen or frozen[0] is None else [
            np.stack([f[name].value for f in frozen]) if self.stacked else frozen[0][name].value
            for name in frozen[0]]
        self.stacks = {}
        if self.stacked:
            for name, among in self.live.items():
                params = [components(states[i].bundle)[name] for i in among]
                shapes = [p.value.shape for p in params[0].values()]
                stack = ad.adam_stack([states[i].adam[name] for i in among], params)
                self.stacks[name] = stack, params, ad.stacked_views(stack, shapes)

    def views(self) -> dict:
        """Each live component's parameter values and gradients, the
        gradients set to -0.0 (``autodiff.adam_views``)."""
        if not self.stacks:
            comps = components(self.states[0].bundle)
            return {name: ad.adam_views(comps[name], self.states[0].adam[name])
                    for name in self.live}
        for stack, _, _ in self.stacks.values():
            stack.grad.fill(-0.0)
        return {name: views for name, (_, _, views) in self.stacks.items()}

    def update(self) -> None:
        ad.adam_update([stack for stack, _, _ in self.stacks.values()] if self.stacks
                       else [self.states[0].adam[name] for name in self.live])

    def unstack(self) -> None:
        for name, (stack, params, _) in self.stacks.items():
            ad.adam_unstack(stack, [self.states[i].adam[name] for i in self.live[name]],
                            params)


def _stack(arrays: list) -> np.ndarray:
    """One lane's array as it is; several lanes' stacked on a leading axis."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _rows(arr: np.ndarray, lanes: tuple, of: tuple) -> np.ndarray:
    """The rows of ``lanes`` in ``arr``, whose rows are the lanes ``of``."""
    return arr if len(lanes) == len(of) else arr[[of.index(i) for i in lanes]]


def _put(arr: np.ndarray, lanes: tuple, of: tuple, rows: np.ndarray) -> np.ndarray:
    """``arr``, whose rows are the lanes ``of``, with the rows of ``lanes``
    replaced by ``rows``, as a new array."""
    if len(lanes) == len(of):
        return rows
    out = arr.copy()
    out[[of.index(i) for i in lanes]] = rows
    return out


def _add(arr: np.ndarray, lanes: tuple, of: tuple, rows: np.ndarray) -> None:
    """Add ``rows`` into the rows of ``lanes`` of ``arr``, in place."""
    if len(lanes) == len(of):
        arr += rows
    elif lanes:
        arr[[of.index(i) for i in lanes]] += rows


def _residual(base: np.ndarray, out: np.ndarray, lanes: tuple, of: tuple) -> np.ndarray:
    """``out`` with ``base`` added in the rows of ``lanes``."""
    if len(lanes) == len(of):
        return ad.add_fwd(base, out)
    if not lanes:
        return out
    return _put(out, lanes, of, ad.add_fwd(_rows(base, lanes, of), _rows(out, lanes, of)))


def _mlp_bwd_rows(g, params: list, acts: list, sinks: list, lanes: tuple, of: tuple) -> None:
    """``autodiff.mlp_bwd`` of the rows of ``lanes``, without an output ReLU,
    into the rows of ``sinks``: through sinks of their own that start at
    -0.0, so each row gets the bits the whole stack's backward would add."""
    if len(lanes) == len(of):
        ad.mlp_bwd(g, params, acts, False, sinks)
        return
    pick = [of.index(i) for i in lanes]
    parts = [np.full((len(pick), *s.shape[1:]), -0.0) for s in sinks]
    ad.mlp_bwd(g, [p[pick] for p in params], [a[pick] for a in acts], False, parts)
    for s, part in zip(sinks, parts):
        s[pick] += part


def _train_step(lanes: list, group: _Lanes | None = None) -> list[dict]:
    """One step of each lane of ``lanes``, a list of (state, preset config,
    inputs, scores) of one lane group (``_lane_key``) at one session,
    through ``autodiff``'s halves, on 2-D arrays for one lane and on
    stacks for several; ``group`` is their ``_Lanes``, made here for this
    step if not given. Returns each lane's loss terms.

    Each lane draws its noise and its replay from its own generators.
    Every sub-step runs once, over the lanes that need it: the encoder and
    the scores over all; the frozen encoder and the projector over the
    projected lanes, the residual add over those without ``no_residual``;
    the graph term over the lanes with one, its row terms once per set of
    graph flags. The forward pass makes every check the reference tape step
    makes, once. Each gradient is then added into its parameter's view of
    its component's flat gradient, in the order that step's ``backward``
    sums it: ``h_new`` gets its score's, then the projector loss's, then the
    graph term's. Every other sum has at most two terms (``h_old``, the
    regressor and projector weights, the encoder under ``replay-raw``), and
    a + b equals b + a exactly, so their order cannot change a bit. A
    component gets a gradient for all of its parameters or for none; the
    projector's are none until the bank has entries. One Adam update of the
    live components follows, after every gradient is checked."""
    states, configs, xbs, ybs = zip(*lanes)
    group = group or _Lanes(states, configs)
    every, stacked, projected, graphed = group.every, group.stacked, group.projected, group.graphed
    bundle = states[0].bundle
    views = group.views()
    reg, reg_g = views["regressor"]
    enc, enc_g = views.get("encoder", (None, None))
    x = ad.checked(_stack(xbs), lanes=stacked)
    check_width(bundle, x.shape[-1])
    n = x.shape[-2]
    acts_new = [x] if enc is None else ad.mlp_fwd(x, enc)
    h_new = acts_new[-1]
    eps_new = _stack([s.rngs["eps"].standard_normal((n, 1)) for s in states])
    y_hat, _, _, score_new = ad.score_fwd(h_new, reg, eps_new)
    yb = _stack(ybs)
    terms = {"l_d": (*ad.sq_error_fwd(y_hat, ad.checked(yb[..., None], lanes=stacked),
                                      1.0 / n), every)}
    if group.memory:
        if projected:
            proj, proj_g = views["projector"]
            xp = _rows(x, projected, every)
            h_frozen = xp if group.frozen is None else ad.mlp_fwd(xp, group.frozen)[-1]
            acts_frozen = ad.mlp_fwd(h_frozen, proj)
            h_projected = _residual(h_frozen, acts_frozen[-1], group.residual, projected)
            terms["l_p"] = (*ad.sq_error_fwd(_rows(h_new, projected, every), h_projected,
                                             1.0 / n), projected)
        draws = [mem.sample_replay(s.bank, c.b1, s.rngs["replay"],
                                   stratified=c.stratified_replay)
                 for s, c in zip(states, configs)]
        stored = ad.checked(_stack([d[0] for d in draws]), lanes=stacked)
        k = stored.shape[-2]
        acts_old, old, old_g = [stored], None, None  # h_old's chain, if trainable
        if group.raw:
            check_width(bundle, stored.shape[-1])
            if enc is not None:
                acts_old, old, old_g = ad.mlp_fwd(stored, enc), enc, enc_g
            h_old = acts_old[-1]
        elif projected:
            check_width(bundle, stored.shape[-1], features=True)
            sp = _rows(stored, projected, every)
            acts_old, old, old_g = ad.mlp_fwd(sp, proj), proj, proj_g
            h_old = _put(stored, projected, every,
                         _residual(sp, acts_old[-1], group.residual, projected))
        else:
            h_old = stored
        eps_old = _stack([s.rngs["eps"].standard_normal((k, 1)) for s in states])
        y_hat_old, _, _, score_old = ad.score_fwd(h_old, reg, eps_old)
        y_old = _stack([d[1] for d in draws])
        terms["l_m"] = (*ad.sq_error_fwd(y_hat_old, ad.checked(y_old[..., None], lanes=stacked),
                                         1.0 / k), every)
        if graphed:
            signed, joint, blocks, use_mse, reverse_kl = group.graph_flags
            gaps = ls.score_distance_matrix(
                _rows(np.concatenate([y_old, yb], axis=-1), graphed, every), signed=signed)
            terms["l_r"] = (*ad.graph_fwd(
                _rows(h_old, graphed, every), _rows(h_new, graphed, every), gaps,
                joint=joint, intra_inter=blocks, use_mse=use_mse, reverse_kl=reverse_kl),
                graphed)
    # the total sums the terms in TERMS order, the weighted ones in their lanes
    first = [terms[key][0] for key in ("l_d", "l_m") if key in terms]
    total, _ = ad.weighted_sum_fwd(first, [None] * len(first))
    g = {"l_d": 1.0, "l_m": 1.0}
    for key in ("l_p", "l_r"):
        if key in terms:
            value, _, sub = terms[key]
            part, factors = ad.weighted_sum_fwd([_rows(total, sub, every), value],
                                                [None, group.weights[key]])
            total = _put(total, sub, every, part)
            g[key] = ad.weighted_sum_bwd(1.0, factors)[1]

    gh_new = None if enc is None else np.full(h_new.shape, -0.0)
    ad.score_bwd(ad.sq_error_bwd(g["l_d"], 1.0 / n, terms["l_d"][1]), reg, eps_new,
                 score_new, reg_g, gh_new)
    if group.memory:
        needs, through = group.needs, group.through
        gh_old = np.full(h_old.shape, -0.0) if needs else None
        sink = gh_old if len(through) == len(every) else (
            np.full(h_old.shape, -0.0) if through else None)
        ad.score_bwd(ad.sq_error_bwd(g["l_m"], 1.0 / k, terms["l_m"][1]), reg, eps_old,
                     score_old, reg_g, sink)
        if through and sink is not gh_old:
            _add(gh_old, through, every, _rows(sink, through, every))
        if projected:
            d = ad.sq_error_bwd(g["l_p"], 1.0 / n, terms["l_p"][1])
            if gh_new is not None:
                _add(gh_new, projected, every, d)
            ad.mlp_bwd(-d, proj, acts_frozen, False, proj_g)
        if graphed:
            ga = ad.graph_bwd(g["l_r"], terms["l_r"][1])
            if gh_old is not None:
                _add(gh_old, group.both, every, _rows(ga[..., :k, :], group.both, graphed))
            if gh_new is not None:
                _add(gh_new, graphed, every, ga[..., k:, :])
        if needs:
            _mlp_bwd_rows(_rows(gh_old, needs, every), old, acts_old, old_g, needs, group.old)
    if gh_new is not None:
        ad.mlp_bwd(gh_new, enc, acts_new, False, enc_g)
    group.update()
    if not stacked:
        out = {key: float(terms[key][0]) if key in terms else None for key in TERMS}
        return [{**out, "total": float(total)}]
    return [{**{key: float(terms[key][0][terms[key][2].index(i), 0, 0])
                if key in terms and i in terms[key][2] else None for key in TERMS},
             "total": float(total[i, 0, 0])} for i in every]


def train_session(state: TrainState, x: np.ndarray, y: np.ndarray,
                  ids: list[str], config: TrainConfig) -> SessionReport:
    """Train one session on normalized data and update the memory bank."""
    return _train_lanes([state], [config], x, y, ids)[0]


def _train_lanes(states: list, configs: list, x: np.ndarray, y: np.ndarray,
                 ids: list[str]) -> list[SessionReport]:
    """Train one session of the lanes of one group (``_lane_key``) on their
    shared data and return their reports. The lanes share the step and
    epoch counts (``b2``, ``epochs`` and ``online`` are part of the key);
    each epoch, each lane draws its own order, then one ``_train_step`` runs
    each batch over the lanes still training. A lane stops early on its own
    ``patience`` and ``min_delta``: it updates its bank, gets its report,
    and the others' components are stacked again without it. Every lane has
    Adam states of its own again when this returns or raises."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size or len(ids) != y.size:
        raise ValueError(f"inconsistent session data: {x.shape} inputs, "
                         f"{y.size} scores, {len(ids)} ids")
    if y.size == 0:
        raise ValueError("empty training session")
    configs = [_preset(c) for c in configs]
    b2, t, epochs = configs[0].b2, states[0].session + 1, configs[0].effective_epochs
    batches = range(0, y.size, b2)
    started = time.perf_counter()
    if t >= 2:
        for state in states:
            freeze_copy(state.bundle)
    step_terms = [[] for _ in states]
    epoch_losses = [[] for _ in states]
    best, streak = [np.inf] * len(states), [0] * len(states)
    reports = [None] * len(states)
    live, group = list(range(len(states))), None
    try:
        for epoch in range(1, epochs + 1):
            group = group or _Lanes([states[i] for i in live], [configs[i] for i in live])
            perms = [states[i].rngs["order"].permutation(y.size) for i in live]
            for lo in batches:
                batch = [(states[i], configs[i], x[p[lo:lo + b2]], y[p[lo:lo + b2]])
                         for i, p in zip(live, perms)]
                for i, terms in zip(live, _train_step(batch, group)):
                    step_terms[i].append(terms)
            for i in live:
                epoch_loss = float(np.mean([s["total"] for s in step_terms[i][-len(batches):]]))
                epoch_losses[i].append(epoch_loss)
                streak[i] = streak[i] + 1 if best[i] - epoch_loss < configs[i].min_delta else 0
                best[i] = min(best[i], epoch_loss)
                if streak[i] >= configs[i].patience or epoch == epochs:
                    _update_bank(states[i], x, y, ids, configs[i], t)
                    states[i].session = t
                    reports[i] = SessionReport(
                        session=t, epochs_run=epoch, steps=len(step_terms[i]),
                        step_terms=step_terms[i], epoch_losses=epoch_losses[i],
                        wall_seconds=time.perf_counter() - started)
            if any(reports[i] is not None for i in live):  # stacked again without them
                live = [i for i in live if reports[i] is None]
                group.unstack()
                group = None
            if not live:
                break
    finally:
        if group is not None:
            group.unstack()
    return reports


def _update_bank(state: TrainState, x: np.ndarray, y: np.ndarray,
                 ids: list[str], config: TrainConfig, t: int) -> None:
    """Session t's bank update for a preset config: refresh, then store."""
    if config.method in MEMORYLESS:
        return
    if not config.no_mp and state.bank.size > 0:
        def refreshed(stored: np.ndarray) -> np.ndarray:
            return project(state.bundle, stored, residual=not config.no_residual)
        mem.refresh(state.bank, refreshed, t)
    if config.method == "replay-raw":
        stored_feats = x
    else:
        stored_feats = encode(state.bundle, x)
    mem.store_session(state.bank, stored_feats, y, ids, t,
                      rng=state.rngs["store"],
                      random_sampling=config.random_sampling)


# ------------------------------------------------------------------ driving


def evaluate_on(bundle: ModelBundle, x: np.ndarray, y: np.ndarray,
                scaler: ScoreScaler) -> tuple[np.ndarray, np.ndarray]:
    """Truths ``y`` and deterministic predictions on ``x``, in original score units."""
    return scaler.denormalize(y), scaler.denormalize(predict(bundle, x))


@dataclass(frozen=True)
class Scores:
    """Per test set, truths and predictions in score units and their ρ; and
    the ρ of all the sets pooled."""

    truths: tuple[np.ndarray, ...]
    preds: tuple[np.ndarray, ...]
    rhos: tuple[float, ...]
    pooled: float


def score_sets(bundle: ModelBundle, sets, scaler: ScoreScaler, ranks=None,
               pooled_ranks=None) -> Scores:
    """Score ``bundle`` on ``sets``, a list of (inputs, normalized scores).
    A caller that keeps the centred ranks of the truths in score units
    passes them, ``ranks`` one per set and ``pooled_ranks`` for their
    union; otherwise ``spearman`` ranks them. One set's pooled ρ is its
    own."""
    truths, preds = zip(*(evaluate_on(bundle, x, y, scaler) for x, y in sets))
    rhos = tuple(map(spearman, truths, preds, ranks or [None] * len(sets)))
    pooled = rhos[0] if len(sets) == 1 else spearman(
        np.concatenate(truths), np.concatenate(preds), pooled_ranks)
    return Scores(truths, preds, rhos, pooled)


def run_continual(plan: SessionPlan, scaler: ScoreScaler,
                  config: TrainConfig, on_session=None) -> RunResult:
    """Drive a full run: T sessions (or one pooled session for ``joint``),
    evaluation after every session, and the aggregate metrics.

    ``on_session(state, t)`` is called after each session's evaluations,
    e.g. to persist checkpoints."""
    _check_plan(plan, [config])
    prefix = _prefix(plan, scaler, _first_key(config))
    return _run_group(plan, scaler, [config], [prefix], on_session)[0]


def run_many(plan: SessionPlan, scaler: ScoreScaler, configs):
    """Yield ``run_continual``'s result for each of a list of configs, in
    order, or raise a config's error at its place. A key's first session is
    trained once per plan, on the first call that needs it, and kept in
    ``plan.memo`` for every later call; a ``joint`` config is its own key.
    Each config goes on from a copy of it. The configs of a lane group
    (``_lane_key``) train their later sessions in lockstep (``_in_order``).

    Where ``os.fork`` and ``os.sched_getaffinity`` exist (Linux), the call
    trains every key's first session here, then runs its configs in
    ``min(CPUs in the affinity mask, configs)`` forked worker processes,
    whose results come back in order, bit-identical to a serial run; a
    first session that fails here is raised after the results of the
    configs before the first config of its key. With one CPU or one config,
    the configs run here, each group when its first config is due, training
    its key's first session when it is first needed."""
    _check_plan(plan, configs)
    keys = [_first_key(c) for c in configs]
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = min(len(os.sched_getaffinity(0)), len(configs))

    def runs():
        if n < 2:
            yield from _in_order(plan, scaler, configs,
                                 lambda i: _prefix(plan, scaler, keys[i]))
            return
        prefixes, failure = [], None
        for key in keys:
            try:
                prefixes.append(_prefix(plan, scaler, key))
            except Exception as e:  # noqa: BLE001 - raised after the configs before it
                failure = e
                break
        yield from _forked(plan, scaler, configs[:len(prefixes)], prefixes, min(n, len(prefixes)))
        if failure is not None:
            raise failure
    return runs()


def _check_plan(plan: SessionPlan, configs: list) -> None:
    if plan.n_sessions < 2:
        raise ValueError(f"need at least 2 sessions, got {plan.n_sessions}")
    for config in configs:
        check_test_sets(plan, config.held_out_only)


def _first_key(config: TrainConfig) -> TrainConfig:
    """The key of a config's first session: the config as ``sequential-ft``
    with the ``SESSION_1_FREE`` fields at their defaults, or a ``joint``
    config itself."""
    if config.method == "joint":
        return config
    free = {f.name: f.default for f in fields(TrainConfig) if f.name in SESSION_1_FREE}
    return replace(config, method="sequential-ft", **free)


def _lane_key(config: TrainConfig) -> tuple:
    """What the configs that train in lockstep share: the first-session key
    and what sets the shapes of a step and its set of sub-steps, the kind
    of replay (``replay-feature-naive`` is ``magr`` with flags set), ``b1``
    and ``m``. Their ablation flags, lambdas, ``lm_stop_grad``,
    ``stratified_replay`` and ``classic_forgetting`` may differ."""
    kind = config.method if config.method in (*MEMORYLESS, "replay-raw") else "magr"
    return _first_key(config), kind, config.b1, config.m


def _in_order(plan: SessionPlan, scaler: ScoreScaler, configs: list, prefix):
    """Yield each config's result, in order; ``prefix(i)`` is config i's
    trained first session. The configs of a lane group run together
    (``_lanes_or_alone``) when the first of them is due, and the others'
    outcomes wait for their turn."""
    keys = [_lane_key(c) for c in configs]
    done = {}
    for i, config in enumerate(configs):
        members = [j for j in range(i, len(configs)) if keys[j] == keys[i]]
        if i not in done and len(members) > 1:
            done.update(_lanes_or_alone(plan, scaler, configs, members, prefix))
        if i not in done:
            yield _run_group(plan, scaler, [config], [prefix(i)])[0]
        elif isinstance(done[i], Exception):
            raise done.pop(i)
        else:
            yield done.pop(i)


def _lanes_or_alone(plan: SessionPlan, scaler: ScoreScaler, configs: list, members: list,
                    prefix) -> dict:
    """Each of ``members``' results, from one ``_run_group`` of them all. If
    that raises, each runs alone instead, from a fork of its own, up to the
    first that raises, whose outcome is its exception, so each yields or
    raises what ``run_continual`` would. If every member runs alone, the
    lanes failed where no config does: a RuntimeError chained from their
    exception reports it."""
    try:
        return dict(zip(members, _run_group(plan, scaler, [configs[j] for j in members],
                                            [prefix(j) for j in members])))
    except Exception as failure:  # noqa: BLE001 - each config re-runs alone
        outcomes = {}
        for j in members:
            try:
                outcomes[j] = _run_group(plan, scaler, [configs[j]], [prefix(j)])[0]
            except Exception as e:  # noqa: BLE001 - raised at the config's place
                outcomes[j] = e
                return outcomes
        raise RuntimeError(f"a lane group of {len(members)} configs raised "
                           f"{type(failure).__name__} in lockstep, but each of them "
                           f"ran alone without error") from failure


def _run_group(plan: SessionPlan, scaler: ScoreScaler, configs: list, prefixes: list,
               on_session=None) -> list[RunResult]:
    """Run configs of one lane group from their keys' trained first sessions
    ``prefixes``, which they only read, and return their results. Each
    config goes on from a copy of its prefix's state with its own bank and
    session-1 bank update, and its own copy of the session-1 report. Each
    later session trains all of them at once; after it, each config is
    evaluated and passed to ``on_session``."""
    T, joint, ho = plan.n_sessions, configs[0].method == "joint", configs[0].held_out_only
    runs = []
    for config, (first, reference, report, data) in zip(configs, prefixes):
        state = _fork(first, config)
        _update_bank(state, *data, _preset(config), 1)
        matrix = EvalMatrix(n_sessions=T)
        matrix.reference.update(reference)
        reports = [replace(report, step_terms=[dict(s) for s in report.step_terms],
                           epoch_losses=list(report.epoch_losses))]
        runs.append(RunResult(method=config.method, seed=config.seed, n_sessions=T,
                              matrix=matrix, reports=reports, summary={}, state=state))
    cell_ranks, pooled_ranks = _truth_ranks(plan, scaler, ho)  # ho is part of the key
    for t in [T] if joint else range(1, T + 1):
        if t > 1 and not joint:
            # one config's sessions go through train_session, where bench/tracing.py
            # times them and counts steps (one call per session of a run_continual)
            data = plan.training_arrays(t)
            states = [run.state for run in runs]
            reports = ([train_session(states[0], *data, configs[0])] if len(runs) == 1
                       else _train_lanes(states, configs, *data))
            for run, report in zip(runs, reports):
                run.reports.append(report)
        for run in runs:
            row = score_sets(run.state.bundle, [plan.test_arrays(j, ho) for j in range(1, t + 1)],
                             scaler, cell_ranks[:t], pooled_ranks[t - 1])
            for j, rho in enumerate(row.rhos, start=1):
                run.matrix.set_cell(t, j, rho)
            run.matrix.pooled[t] = row.pooled
            if t < T:
                run.matrix.set_cell(t, t + 1, score_sets(
                    run.state.bundle, [plan.test_arrays(t + 1, ho)], scaler,
                    cell_ranks[t:t + 1]).rhos[0])
            if on_session is not None:
                on_session(run.state, run.state.session)
    for config, run in zip(configs, runs):
        aft = None if joint else rho_aft(run.matrix, classic=config.classic_forgetting)
        fwt = None if joint else rho_fwt(run.matrix)
        run.summary = {"method": config.method, "seed": config.seed,
                       "rho_avg": run.matrix.pooled[T], "rho_aft": aft, "rho_fwt": fwt}
    return runs


def _prefix(plan: SessionPlan, scaler: ScoreScaler, key: TrainConfig) -> tuple:
    """A key's trained first session: (state, reference row, report, data),
    from ``plan.memo``, or trained and kept there if it is not in it yet."""
    if (scaler, key) in plan.memo:
        return plan.memo[scaler, key]
    T = plan.n_sessions
    state = new_state(key, plan.input_width, plan.feature_mode)
    joint = key.method == "joint"
    first = range(1, T + 1) if joint else [1]  # joint: one pooled session
    xs, ys, ids = zip(*map(plan.training_arrays, first))
    data = np.concatenate(xs), np.concatenate(ys), sum(ids, ())
    report = train_session(state, *data, key)
    reference = {}
    if not joint:  # ranked after training, so a failed session memoises nothing
        ref = init_bundle(state.bundle.spec, _reference_seed(key.seed))
        ranks = _truth_ranks(plan, scaler, key.held_out_only)[0]
        reference = {t: score_sets(ref, [plan.test_arrays(t, key.held_out_only)], scaler,
                                   ranks[t - 1:t]).rhos[0]
                     for t in range(2, T + 1)}
    plan.memo[scaler, key] = state, reference, report, data
    return plan.memo[scaler, key]


def _fork(state: TrainState, config: TrainConfig) -> TrainState:
    """A deep copy of ``state``, sharing no array with it, with an empty
    bank of ``config.m`` entries: ``m`` is free in session 1, so the
    copied bank's capacity may not be the config's. The Adam settings are
    part of the key, so the copy's are the config's."""
    fork = copy.deepcopy(state)
    fork.bank = mem.MemoryBank(capacity=config.m)
    return fork


def _forked(plan: SessionPlan, scaler: ScoreScaler, configs: list, prefixes: list,
            n: int):
    """Yield ``_in_order``'s result for each config, in order, from ``n``
    forked workers. Worker w runs configs w, w + n, ... on its own copies of
    their inherited ``prefixes`` and pickles each result onto its pipe as it
    is yielded, so the results are read round-robin, one at a time, and a
    worker that dies loses only the configs it had not sent. A lane group's
    results are yielded when the whole group is done, so one that dies in
    any lane of a group loses every lane's. However this generator ends,
    every worker is killed if still running and reaped."""
    import pickle
    import signal

    pids, pipes = [], []
    try:
        for w in range(n):
            r, wfd = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pids.append(os.fork())
                if pids[-1] == 0:
                    _work(wfd, pipes, plan, scaler, configs[w::n], prefixes[w::n])
            finally:
                os.close(wfd)
        for i, config in enumerate(configs):
            try:
                ok, result = pickle.load(pipes[i % n])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"run_many worker {i % n} exited without the result "
                                   f"of config {i} ({config.method}, seed {config.seed})")
            if not ok:
                raise result
            yield result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _work(fd: int, inherited: list, plan: SessionPlan, scaler: ScoreScaler,
          configs: list, prefixes: list) -> None:
    """A worker's whole life: run ``configs`` and write each pickled result
    to ``fd`` as soon as it is yielded, or the first exception, which ends
    the run. It leaves through ``os._exit``, never returning into the
    caller."""
    import pickle
    import traceback

    status = 1
    try:
        for other in inherited:
            other.close()
        runs = _in_order(plan, scaler, configs, prefixes.__getitem__)
        with open(fd, "wb") as fh:
            for _ in configs:
                try:
                    result = next(runs)
                    ok, blob = True, pickle.dumps((True, result), pickle.HIGHEST_PROTOCOL)
                except Exception as e:  # noqa: BLE001 - re-raised by the parent
                    ok = False
                    e.add_note("in a run_many worker:\n" + traceback.format_exc())
                    try:
                        blob = pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL)
                        pickle.loads(blob)
                    except Exception:  # noqa: BLE001 - an exception that cannot travel
                        blob = pickle.dumps((False, RuntimeError(f"{type(e).__name__}: {e}")))
                fh.write(blob)
                fh.flush()
                if not ok:
                    break
        status = 0
    finally:
        os._exit(status)


def _truth_ranks(plan: SessionPlan, scaler: ScoreScaler, held_out_only: bool) -> tuple:
    """The centred ranks of each session's test truths, in score units, and
    of each prefix 1..i of them pooled, as ``run_continual`` scores them:
    ranked once per plan, scaler and ``held_out_only``, and kept in
    ``plan.memo``."""
    if (scaler, held_out_only) not in plan.memo:
        truths = [scaler.denormalize(plan.test_arrays(t, held_out_only)[1])
                  for t in range(1, plan.n_sessions + 1)]
        plan.memo[scaler, held_out_only] = (
            [centred_ranks(y) for y in truths],
            [centred_ranks(np.concatenate(truths[:i])) for i in range(1, len(truths) + 1)])
    return plan.memo[scaler, held_out_only]


def _reference_seed(seed: int) -> int:
    # distinct deterministic seed for the forward-transfer reference model
    return seed * 2 + 1
