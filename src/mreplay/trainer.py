"""Session loop for continual score regression with feature replay.

Per session: train on the session's few-shot split (the base session also
gets the fine-tune pool). Each step always minimizes the regression loss
on the current batch; once the memory bank is non-empty it adds

* a projector alignment loss (current features vs projected frozen-encoder
  features),
* a replay regression loss on projected stored features,
* the graph regularizer over the joint replayed/current batch,

and takes one Adam step on the weighted sum. The step builds no tape: it
calls ``autodiff``'s array-level halves and adds each gradient straight
into its component's flat Adam gradient. At session end the stored
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
it; each config goes on from a copy of that state. The memo also keeps the
ranks of the test truths per scaler and ``held_out_only``, so every
evaluation cell and pooled prefix ranks only its predictions.

On platforms with ``os.fork`` and ``os.sched_getaffinity`` (Linux), one
``run_many`` call trains all its keys' first sessions, then runs its
configs in one pool of forked worker processes, one per CPU of the
affinity mask and at most one per config. Each worker pickles its results
onto a pipe, and they come back in config order, bit-identical to a serial
run. Elsewhere, with one CPU or one config, or when an ``on_session`` hook
is given, which must run in the calling process, they run in-process. No
option sets the worker count; ``taskset`` limits it.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import memory as mem
from .data import ScoreScaler, SessionPlan, config_from_dict
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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if self.b1 < 1 or self.b2 < 1:
            raise ValueError(f"batch sizes must be >= 1, got b1={self.b1} b2={self.b2}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")
        if self.m < 1:
            raise ValueError(f"memory per session must be >= 1, got {self.m}")
        if self.lambda_p < 0 or self.lambda_r < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lr <= 0 or self.weight_decay < 0:
            raise ValueError(f"bad optimizer settings lr={self.lr} "
                             f"weight_decay={self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.no_mp and self.no_residual:
            raise ValueError("no_mp removes the projector entirely; "
                             "no_residual contradicts it")

    @property
    def effective_epochs(self) -> int:
        return 1 if self.online else self.epochs

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return config_from_dict(TrainConfig, d, "train")


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


def _train_step(state: TrainState, xb: np.ndarray, yb: np.ndarray,
                config: TrainConfig) -> dict:
    """One step without a tape, through ``autodiff``'s array-level halves.

    The forward pass makes every check the tape's step made, once. Each
    gradient is then added into its parameter's view of its component's
    flat gradient, in the order the tape's ``backward`` summed it: ``h_new``
    gets its score's, then the projector loss's, then the graph term's.
    Every other sum has at most two terms (``h_old``, the regressor and
    projector weights, the encoder under ``replay-raw``), and a + b equals
    b + a exactly, so their order cannot change a bit. A component gets a
    gradient for all of its parameters or for none; the projector's are
    none until the bank has entries. One Adam update of the live
    components follows, after every gradient is checked."""
    bundle, rngs = state.bundle, state.rngs
    memory = config.method not in MEMORYLESS and state.bank.size > 0
    projected = memory and not config.no_mp
    comps = components(bundle)
    live = [name for name in comps if name != "projector" or projected]
    views = {name: ad.adam_views(comps[name], state.adam[name]) for name in live}
    reg, reg_g = views["regressor"]
    enc, enc_g = views.get("encoder", (None, None))
    x = ad.checked(xb)
    check_width(bundle, x.shape[1])
    n = x.shape[0]
    acts_new = [x] if enc is None else ad.mlp_fwd(x, enc)
    h_new = acts_new[-1]
    eps_new = rngs["eps"].standard_normal((n, 1))
    y_hat, _, _, score_new = ad.score_fwd(h_new, reg, eps_new)
    terms = {"l_d": ad.sq_error_fwd(y_hat, ad.checked(yb.reshape(-1, 1)), 1.0 / n)}
    if memory:
        residual = not config.no_residual
        if projected:
            proj, proj_g = views["projector"]
            frozen = encoder_params(bundle, frozen=True)
            h_frozen = x if frozen is None else ad.mlp_fwd(
                x, [p.value for p in frozen.values()])[-1]
            acts_frozen = ad.mlp_fwd(h_frozen, proj)
            h_projected = acts_frozen[-1]
            if residual:
                h_projected = ad.add_fwd(h_frozen, h_projected)
            terms["l_p"] = ad.sq_error_fwd(h_new, h_projected, 1.0 / n)
        feats, y_old, _ = mem.sample_replay(state.bank, config.b1, rngs["replay"],
                                            stratified=config.stratified_replay)
        stored = ad.checked(feats)
        k = stored.shape[0]
        acts_old, old, old_g = [stored], None, None  # h_old's chain, if trainable
        if config.method == "replay-raw":
            check_width(bundle, stored.shape[1])
            if enc is not None:
                acts_old, old, old_g = ad.mlp_fwd(stored, enc), enc, enc_g
            h_old = acts_old[-1]
        elif projected:
            check_width(bundle, stored.shape[1], features=True)
            acts_old, old, old_g = ad.mlp_fwd(stored, proj), proj, proj_g
            h_old = ad.add_fwd(stored, acts_old[-1]) if residual else acts_old[-1]
        else:
            h_old = stored
        eps_old = rngs["eps"].standard_normal((k, 1))
        y_hat_old, _, _, score_old = ad.score_fwd(h_old, reg, eps_old)
        terms["l_m"] = ad.sq_error_fwd(y_hat_old, ad.checked(y_old.reshape(-1, 1)), 1.0 / k)
        if not (config.no_j_gr and config.no_ii_gr):
            gaps = ls.score_distance_matrix(np.concatenate([y_old, yb]),
                                            signed=not config.abs_score_distance)
            terms["l_r"] = ad.graph_fwd(h_old, h_new, gaps, joint=not config.no_j_gr,
                                        intra_inter=not config.no_ii_gr,
                                        use_mse=config.mse_gr, reverse_kl=config.reverse_kl)
    keys = [key for key in TERMS if key in terms]  # the total sums them in this order
    weights = {"l_p": config.lambda_p, "l_r": config.lambda_r}
    total, factors = ad.weighted_sum_fwd([terms[key][0] for key in keys],
                                         [weights.get(key) for key in keys])
    g = dict(zip(keys, ad.weighted_sum_bwd(1.0, factors)))

    gh_new = None if enc is None else np.full(h_new.shape, -0.0)
    ad.score_bwd(ad.sq_error_bwd(g["l_d"], 1.0 / n, terms["l_d"][1]), reg, eps_new,
                 score_new, reg_g, gh_new)
    if memory:
        # h_old needs a gradient if it came through trainable weights and a
        # term other than a stopped score reads it
        gh_old = None
        if old is not None and ("l_r" in terms or not config.lm_stop_grad):
            gh_old = np.full(h_old.shape, -0.0)
        ad.score_bwd(ad.sq_error_bwd(g["l_m"], 1.0 / k, terms["l_m"][1]), reg, eps_old,
                     score_old, reg_g, None if config.lm_stop_grad else gh_old)
        if projected:
            d = ad.sq_error_bwd(g["l_p"], 1.0 / n, terms["l_p"][1])
            if gh_new is not None:
                gh_new += d
            ad.mlp_bwd(-d, proj, acts_frozen, False, proj_g)
        if "l_r" in terms:
            ga = ad.graph_bwd(g["l_r"], terms["l_r"][1])
            if gh_old is not None:
                gh_old += ga[:k]
            if gh_new is not None:
                gh_new += ga[k:]
        if gh_old is not None:
            ad.mlp_bwd(gh_old, old, acts_old, False, old_g)
    if gh_new is not None:
        ad.mlp_bwd(gh_new, enc, acts_new, False, enc_g)
    ad.adam_update([state.adam[name] for name in live])
    out = {key: float(terms[key][0]) if key in terms else None for key in TERMS}
    return {**out, "total": float(total)}


def train_session(state: TrainState, x: np.ndarray, y: np.ndarray,
                  ids: list[str], config: TrainConfig) -> SessionReport:
    """Train one session on normalized data and update the memory bank."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.size or len(ids) != y.size:
        raise ValueError(f"inconsistent session data: {x.shape} inputs, "
                         f"{y.size} scores, {len(ids)} ids")
    if y.size == 0:
        raise ValueError("empty training session")
    config = _preset(config)
    t = state.session + 1
    started = time.perf_counter()
    if t >= 2:
        freeze_copy(state.bundle)
    step_terms: list[dict] = []
    epoch_losses: list[float] = []
    best = np.inf
    streak = 0
    epochs_run = 0
    for _ in range(config.effective_epochs):
        perm = state.rngs["order"].permutation(y.size)
        batch_losses = []
        for lo in range(0, y.size, config.b2):
            idx = perm[lo:lo + config.b2]
            terms = _train_step(state, x[idx], y[idx], config)
            step_terms.append(terms)
            batch_losses.append(terms["total"])
        epochs_run += 1
        epoch_loss = float(np.mean(batch_losses))
        epoch_losses.append(epoch_loss)
        streak = streak + 1 if best - epoch_loss < config.min_delta else 0
        best = min(best, epoch_loss)
        if streak >= config.patience:
            break
    _update_bank(state, x, y, ids, config, t)
    state.session = t
    return SessionReport(session=t, epochs_run=epochs_run,
                         steps=len(step_terms), step_terms=step_terms,
                         epoch_losses=epoch_losses,
                         wall_seconds=time.perf_counter() - started)


def _update_bank(state: TrainState, x: np.ndarray, y: np.ndarray,
                 ids: list[str], config: TrainConfig, t: int) -> None:
    """Session t's bank update for a preset config: refresh, then store."""
    if config.method in MEMORYLESS:
        return
    if not config.no_mp and state.bank.size > 0:
        def refreshed(stored: np.ndarray) -> np.ndarray:
            return project(state.bundle, ad.const(stored),
                           residual=not config.no_residual).value
        mem.refresh(state.bank, refreshed, t)
    if config.method == "replay-raw":
        stored_feats = x
    else:
        stored_feats = encode(state.bundle, ad.const(x)).value
    mem.store_session(state.bank, stored_feats, y, ids, t,
                      rng=state.rngs["store"],
                      random_sampling=config.random_sampling)


# ------------------------------------------------------------------ driving


def evaluate_on(bundle: ModelBundle, x: np.ndarray, y: np.ndarray,
                scaler: ScoreScaler) -> tuple[np.ndarray, np.ndarray]:
    """Truths ``y`` and deterministic predictions on ``x``, in original score units."""
    return scaler.denormalize(y), scaler.denormalize(predict(bundle, x))


def run_continual(plan: SessionPlan, scaler: ScoreScaler,
                  config: TrainConfig, on_session=None) -> RunResult:
    """Drive a full run: T sessions (or one pooled session for ``joint``),
    evaluation after every session, and the aggregate metrics.

    ``on_session(state, t)`` is called after each session's evaluations,
    e.g. to persist checkpoints."""
    return next(run_many(plan, scaler, [config], on_session))


def run_many(plan: SessionPlan, scaler: ScoreScaler, configs, on_session=None):
    """Yield ``run_continual``'s result for each of a list of configs, in
    order. A key's first session is trained once per plan, on the first call
    that needs it, and kept in ``plan.memo`` for every later call; a ``joint``
    config is its own key. Each config goes on from a copy of it.

    Where ``os.fork`` and ``os.sched_getaffinity`` exist (Linux), the call
    trains every key's first session here, then runs its configs in
    ``min(CPUs in the affinity mask, configs)`` forked worker processes,
    whose results come back in order, bit-identical to a serial run. With
    one CPU or one config, or when ``on_session`` is given (the hook runs in
    the calling process), the configs run here, one after another, each
    training its key's first session when it is first needed."""
    T = plan.n_sessions
    if T < 2:
        raise ValueError(f"need at least 2 sessions, got {T}")
    for config in configs:
        check_test_sets(plan, config.held_out_only)
    free = {f.name: f.default for f in fields(TrainConfig) if f.name in SESSION_1_FREE}
    keys = [c if c.method == "joint" else replace(c, method="sequential-ft", **free)
            for c in configs]
    n = 1
    if on_session is None and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = min(len(os.sched_getaffinity(0)), len(configs))

    def runs():
        if n < 2:
            for config, key in zip(configs, keys):
                yield _run_from(plan, scaler, config, on_session, _prefix(plan, scaler, key))
        else:
            prefixes = [_prefix(plan, scaler, key) for key in keys]
            yield from _forked(plan, scaler, configs, prefixes, n)
    return runs()


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
        reference = {t: spearman(*evaluate_on(
            ref, *plan.test_arrays(t, key.held_out_only), scaler), ranks[t - 1])
            for t in range(2, T + 1)}
    plan.memo[scaler, key] = state, reference, report, data
    return plan.memo[scaler, key]


def _fork(state: TrainState, config: TrainConfig) -> TrainState:
    """A copy of ``state``'s weights, Adam state, RNGs and session for
    ``config``, sharing no array with it, with an empty bank of its own."""
    adam = {name: replace(a, buffer=a.buffer.copy(), m=a.m.copy(), v=a.v.copy(),
                          grad=a.grad.copy(), lr=config.lr,
                          weight_decay=config.weight_decay)
            for name, a in state.adam.items()}
    comps = {name: {key: ad.leaf(p.value, name=key) for key, p in params.items()}
             for name, params in components(state.bundle).items()}
    for name, params in comps.items():
        ad.adam_bind(params, adam[name])
    frozen = state.bundle.frozen_encoder
    if frozen is not None:
        frozen = {key: ad.const(p.value.copy()) for key, p in frozen.items()}
    bundle = replace(state.bundle, encoder=comps.get("encoder"), projector=comps["projector"],
                     regressor=comps["regressor"], frozen_encoder=frozen)
    rngs = {}
    for name, rng in state.rngs.items():
        rngs[name] = np.random.Generator(type(rng.bit_generator)(0))
        rngs[name].bit_generator.state = rng.bit_generator.state
    return TrainState(bundle=bundle, bank=mem.MemoryBank(capacity=config.m), adam=adam,
                      rngs=rngs, session=state.session)


def _forked(plan: SessionPlan, scaler: ScoreScaler, configs: list, prefixes: list,
            n: int):
    """Yield ``_run_from``'s result for each config, in order, from ``n``
    forked workers. Worker w runs configs w, w + n, ... on its own copies of
    their inherited ``prefixes`` and pickles each result onto its pipe as it
    finishes, so the results are read round-robin, one at a time, and a
    worker that dies loses only the configs it had not done. However this
    generator ends, every worker is killed if still running and reaped."""
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
    to ``fd`` as soon as it is done, or the first exception, which ends the
    run. It leaves through ``os._exit``, never returning into the caller."""
    import pickle
    import traceback

    status = 1
    try:
        for other in inherited:
            other.close()
        with open(fd, "wb") as fh:
            for config, prefix in zip(configs, prefixes):
                try:
                    result = _run_from(plan, scaler, config, None, prefix)
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


def _run_from(plan: SessionPlan, scaler: ScoreScaler, config: TrainConfig, on_session,
              prefix: tuple) -> RunResult:
    """Run a config from its key's trained first session ``prefix``, which
    it only reads: a copy of its state with the config's own bank and
    session-1 bank update, its own copy of the session-1 report, its
    evaluations, and the rest of its sessions."""
    first, reference, report, data = prefix
    T = plan.n_sessions
    joint = config.method == "joint"
    state = _fork(first, config)
    _update_bank(state, *data, _preset(config), 1)
    reports = [replace(report, step_terms=[dict(s) for s in report.step_terms],
                       epoch_losses=list(report.epoch_losses))]
    matrix = EvalMatrix(n_sessions=T)
    matrix.reference.update(reference)
    ho = config.held_out_only
    cell_ranks, pooled_ranks = _truth_ranks(plan, scaler, ho)

    def eval_cell(i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        truth, pred = evaluate_on(state.bundle, *plan.test_arrays(j, ho), scaler)
        matrix.set_cell(i, j, spearman(truth, pred, cell_ranks[j - 1]))
        return truth, pred

    def eval_row(i: int) -> None:
        """Cells (i, 1..i) and their pooled correlation."""
        truths, preds = zip(*(eval_cell(i, j) for j in range(1, i + 1)))
        matrix.pooled[i] = spearman(np.concatenate(truths), np.concatenate(preds),
                                    pooled_ranks[i - 1])

    for t in [T] if joint else range(1, T + 1):
        if t > 1 and not joint:
            reports.append(train_session(state, *plan.training_arrays(t), config))
        eval_row(t)
        if t < T:
            eval_cell(t, t + 1)
        if on_session is not None:
            on_session(state, state.session)
    aft = None if joint else rho_aft(matrix, classic=config.classic_forgetting)
    fwt = None if joint else rho_fwt(matrix)
    summary = {"method": config.method, "seed": config.seed,
               "rho_avg": matrix.pooled[T], "rho_aft": aft, "rho_fwt": fwt}
    return RunResult(method=config.method, seed=config.seed, n_sessions=T,
                     matrix=matrix, reports=reports, summary=summary,
                     state=state)


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
