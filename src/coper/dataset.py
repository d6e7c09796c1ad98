"""Benchmark corpus builder: split policies, sampling, emission, verification.

A SplitPolicy divides the (P1, P2) period grid into in-distribution pairs,
deliberately withheld hollow pairs (interpolation probes), and pairs with a
period outside the training range (extrapolation probes).  build_dataset
writes one JSONL file per split plus a manifest, each atomically;
verify_dataset re-derives every target from the record text with an oracle
that shares no code with the generators.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import codec
from .composers import (
    AnswerLenPolicy,
    ComposeRule,
    InvalidSpec,
    TWO_CYCLE_RULES,
    compose_addsub,
    compose_circconv,
    compose_modadd,
    gen_scaled_single,
    gen_single_continuation,
    gen_sine_pair,
)
from .cycles import PeriodicCycle, lcm, minimal_period
from .model import write_atomic

FORMAT_VERSION = "coper-1"
# Cycle values of the digit tasks, and their composed answers, live in [0, 10).
_MODULUS = 10


class OutOfRange(ValueError):
    """A period pair outside the policy's total range."""


class InfeasiblePolicy(ValueError):
    """A requested split has no admissible period pairs."""


class ParseError(ValueError):
    """A malformed dataset line; carries its 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Split(str, Enum):
    TRAIN = "train"
    TEST_ID = "test_id"
    TEST_HOLLOW = "test_hollow"
    TEST_EXTRAPOLATION = "test_extrapolation"


class PairClass(str, Enum):
    ID = "id"
    HOLLOW = "hollow"
    EXTRAPOLATION = "extrapolation"


SPLIT_TO_CLASS = {
    Split.TRAIN: PairClass.ID,
    Split.TEST_ID: PairClass.ID,
    Split.TEST_HOLLOW: PairClass.HOLLOW,
    Split.TEST_EXTRAPOLATION: PairClass.EXTRAPOLATION,
}
_SPLIT_INDEX = {s: i for i, s in enumerate(Split)}


@dataclass(frozen=True)
class SplitPolicy:
    """Training period range [train_lo, train_hi] inside [total_lo, total_hi],
    plus the hollow pair set withheld from training."""

    train_lo: int
    train_hi: int
    total_lo: int
    total_hi: int
    hollow: tuple = ()  # sorted, distinct (p1, p2) pairs; any iterable of pairs is normalised

    def __post_init__(self):
        object.__setattr__(self, "hollow", tuple(sorted({(int(a), int(b)) for a, b in self.hollow})))
        if not (self.total_lo <= self.train_lo <= self.train_hi <= self.total_hi):
            raise InfeasiblePolicy(
                f"need total_lo <= train_lo <= train_hi <= total_hi, got "
                f"[{self.train_lo}, {self.train_hi}] in [{self.total_lo}, {self.total_hi}]"
            )
        if self.total_lo < 1:
            raise InfeasiblePolicy(f"total_lo must be >= 1, got {self.total_lo}")
        for p1, p2 in self.hollow:
            if not (self.train_lo <= p1 <= self.train_hi and self.train_lo <= p2 <= self.train_hi):
                raise InfeasiblePolicy(f"hollow pair ({p1}, {p2}) outside the training range")


def classify_pair(p1: int, p2: int, policy: SplitPolicy) -> PairClass:
    """Hollow beats extrapolation beats in-distribution, per the split design."""
    if not (policy.total_lo <= p1 <= policy.total_hi and policy.total_lo <= p2 <= policy.total_hi):
        raise OutOfRange(f"pair ({p1}, {p2}) outside total range [{policy.total_lo}, {policy.total_hi}]")
    if (p1, p2) in policy.hollow:
        return PairClass.HOLLOW
    in_train = policy.train_lo <= p1 <= policy.train_hi and policy.train_lo <= p2 <= policy.train_hi
    return PairClass.ID if in_train else PairClass.EXTRAPOLATION


def _sample_exact_period(period: int, lo: int, hi: int, rng: np.random.Generator) -> PeriodicCycle:
    """Cycle in base hi + 1 of uniform draws over [lo, hi], rejected until
    its minimal period is exact."""
    if period == 1:
        return PeriodicCycle((int(rng.integers(lo, hi + 1)),), base=hi + 1)
    for _ in range(100_000):
        cycle = PeriodicCycle(tuple(rng.integers(lo, hi + 1, size=period).tolist()), base=hi + 1)
        if minimal_period(cycle) == period:
            return cycle
    raise RuntimeError(f"rejection sampling failed for period {period} over [{lo}, {hi}]")


def sample_cycle(period: int, base: int, rng: np.random.Generator) -> PeriodicCycle:
    """Random cycle whose minimal period is exactly `period`."""
    if period < 1:
        raise InvalidSpec(f"period must be >= 1, got {period}")
    if base < 2:
        raise InvalidSpec(f"base must be >= 2, got {base}")
    return _sample_exact_period(period, 0, base - 1, rng)


@dataclass(frozen=True)
class TaskParams:
    """Knobs for the single-sequence and sine tasks (unused fields ignored)."""

    prompt_len_lo: int = 25        # continuation task: prompt length range
    prompt_len_hi: int = 32
    prompt_tracks_period: bool = False  # draw prompt as 2..3 cycles of the period instead
    answer_len: int = 10
    repeats: int = 4               # scaled task: total blocks and prompt cut
    prompt_blocks: int = 2
    value_hi: int = 4              # scaled cycles draw values from [1, value_hi]
    factor: int = 2
    x_id_bound: float = 3 * math.pi      # sine: train on |x| <= bound
    x_ood_bound: float = 6 * math.pi     # sine: OOD on bound < |x| <= ood_bound


@dataclass(frozen=True)
class SampleRecord:
    """One serialized task instance."""

    input_text: str
    target_text: str
    p1: int
    p2: int
    split: Split
    rule: ComposeRule
    seed_id: int

    def to_dict(self) -> dict:
        return {
            "input": self.input_text,
            "target": self.target_text,
            "p1": self.p1,
            "p2": self.p2,
            "split": self.split.value,
            "rule": self.rule.value,
            "seed_id": self.seed_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SampleRecord":
        return cls(d["input"], d["target"], int(d["p1"]), int(d["p2"]),
                   Split(d["split"]), ComposeRule(d["rule"]), int(d["seed_id"]))


def _section(cls, name: str, d: dict):
    """`cls(**d)` for the manifest section `name`; a missing, unknown or bad
    field is an InvalidSpec naming the section and the field."""
    if not isinstance(d, dict):
        raise InvalidSpec(f"manifest section {name!r} is not an object")
    names = {f.name for f in fields(cls)}
    if d.keys() != names:
        raise InvalidSpec(f"manifest section {name!r} lacks fields {sorted(names - d.keys())} "
                          f"and has unknown fields {sorted(d.keys() - names)}")
    try:
        return cls(**d)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"manifest section {name!r} is invalid: {exc}") from exc


def _split_section(name: str, d, value_type: type) -> dict:
    """{Split: value} for the manifest section `name`, an object from split
    names to `value_type` values; anything else is an InvalidSpec naming it."""
    if not isinstance(d, dict):
        raise InvalidSpec(f"manifest section {name!r} is not an object")
    names = {s.value for s in Split}
    for split, value in d.items():
        if split not in names or type(value) is not value_type:
            raise InvalidSpec(f"manifest section {name!r} maps {split!r} to {value!r}, "
                              f"not a split to a {value_type.__name__}")
    return {Split(s): v for s, v in d.items()}


@dataclass
class DatasetManifest:
    rule: ComposeRule
    policy: SplitPolicy | None
    counts: dict
    master_seed: int
    modulus: int
    answer_policy: AnswerLenPolicy
    task_params: TaskParams
    files: dict
    format_version: str = FORMAT_VERSION

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "rule": self.rule.value,
            "policy": asdict(self.policy) if self.policy is not None else None,
            "counts": {s.value: int(n) for s, n in self.counts.items()},
            "master_seed": self.master_seed,
            "modulus": self.modulus,
            "answer_len_policy": {"kind": self.answer_policy.kind, **asdict(self.answer_policy)},
            "task_params": asdict(self.task_params),
            "files": {s.value: f for s, f in self.files.items()},
            "vocab": codec.vocab_table(),
            "notes": {
                "circ_conv_reduction": "convolution values are reduced mod `modulus` to fit the digit vocabulary",
                "scaled_encoding": "scaled sequences serialize as comma-separated decimal values",
                "digit_order": "string index t is sequence position t (least significant first)",
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        if d.get("format_version") != FORMAT_VERSION:
            raise InvalidSpec(f"unsupported dataset format: {d.get('format_version')!r}")
        if d.get("vocab") != codec.vocab_table():
            raise InvalidSpec(f"dataset vocabulary {d.get('vocab')!r} is not this codec's table")
        missing = {"rule", "policy", "counts", "master_seed", "modulus", "answer_len_policy",
                   "task_params", "files"} - d.keys()
        if missing:
            raise InvalidSpec(f"manifest lacks sections {sorted(missing)}")
        alp = d["answer_len_policy"]
        if isinstance(alp, dict):  # its "kind" is derived from max_len
            alp = {k: v for k, v in alp.items() if k != "kind"}
        return cls(
            rule=ComposeRule(d["rule"]),
            policy=_section(SplitPolicy, "policy", d["policy"]) if d["policy"] is not None else None,
            counts=_split_section("counts", d["counts"], int),
            master_seed=int(d["master_seed"]),
            modulus=int(d["modulus"]),
            answer_policy=_section(AnswerLenPolicy, "answer_len_policy", alp),
            task_params=_section(TaskParams, "task_params", d["task_params"]),
            files=_split_section("files", d["files"], str),
        )

    def save(self, path: Path) -> None:
        write_atomic(path, json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path: Path) -> "DatasetManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


def admissible_pairs(rule: ComposeRule, policy: SplitPolicy) -> dict:
    """Sorted (P1, P2) lists per pair class; single-sequence rules use the diagonal."""
    lo, hi = policy.total_lo, policy.total_hi
    if rule in TWO_CYCLE_RULES:
        universe = [(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)]
    else:
        universe = [(a, a) for a in range(lo, hi + 1)]
    out = {PairClass.ID: [], PairClass.HOLLOW: [], PairClass.EXTRAPOLATION: []}
    for pair in universe:
        out[classify_pair(pair[0], pair[1], policy)].append(pair)
    return out


def _record_rng(master_seed: int, split: Split, index: int) -> np.random.Generator:
    # Per-sample seed derivation: hash of (master seed, split, index), so any
    # split regenerates independently and generation order never matters.
    return np.random.default_rng(np.random.SeedSequence((master_seed, _SPLIT_INDEX[split], index)))


def _digits(seq) -> str:
    return "".join(map(str, seq))


def make_record(
    rule: ComposeRule,
    split: Split,
    pair: tuple[int, int],
    seed_id: int,
    rng: np.random.Generator,
    modulus: int,
    answer_policy: AnswerLenPolicy,
    params: TaskParams,
) -> SampleRecord:
    p1, p2 = pair
    if rule in TWO_CYCLE_RULES:
        c1 = sample_cycle(p1, modulus, rng)
        c2 = sample_cycle(p2, modulus, rng)
        n_total = lcm(p1, p2)
        ans_len = answer_policy.answer_len(n_total)
        if rule is ComposeRule.MOD_ADD:
            ans = compose_modadd(c1, c2, modulus, ans_len)
        elif rule is ComposeRule.ADD_SUB_ALT:
            ans = compose_addsub(c1, c2, modulus, ans_len)
        else:
            ans = compose_circconv(c1, c2, modulus)[:ans_len]
        # lcm(p1, p2) is a multiple of each period: every operand is whole cycles.
        s1 = _digits(c1.values) * (n_total // p1)
        s2 = _digits(c2.values) * (n_total // p2)
        input_text, target_text = codec.serialize_sample(s1, s2, _digits(ans))
    elif rule is ComposeRule.SINGLE_PERIOD:
        c = sample_cycle(p1, modulus, rng)
        if params.prompt_tracks_period:
            # Between two and three full cycles, never an exact multiple.
            prompt_len = 2 * p1 + int(rng.integers(1, p1 + 1))
        else:
            prompt_len = int(rng.integers(params.prompt_len_lo, params.prompt_len_hi + 1))
            prompt_len = max(prompt_len, 2 * p1)
        prompt, answer = gen_single_continuation(c, prompt_len, params.answer_len)
        input_text, target_text = _digits(prompt), _digits(answer)
    elif rule is ComposeRule.SCALED_SINGLE:
        c = _sample_exact_period(p1, 1, params.value_hi, rng)
        seq = gen_scaled_single(c, params.repeats, params.factor)
        cut = params.prompt_blocks * p1
        input_text = ",".join(str(v) for v in seq[:cut]) + ","
        target_text = ",".join(str(v) for v in seq[cut:])
    elif rule is ComposeRule.SINE:
        if split is Split.TEST_EXTRAPOLATION:
            mag = rng.uniform(params.x_id_bound, params.x_ood_bound)
        else:
            mag = rng.uniform(0.0, params.x_id_bound)
        x = float(mag if rng.integers(2) == 0 else -mag)
        x_text, y_text = gen_sine_pair(x)
        input_text, target_text = x_text + "=", y_text
    else:  # pragma: no cover
        raise InvalidSpec(f"unknown rule {rule}")
    return SampleRecord(input_text, target_text, p1, p2, split, rule, seed_id)


def build_dataset(
    rule: ComposeRule,
    policy: SplitPolicy | None,
    counts: dict,
    master_seed: int,
    out_dir: Path,
    *,
    answer_policy: AnswerLenPolicy = AnswerLenPolicy(120),
    task_params: TaskParams = TaskParams(),
) -> DatasetManifest:
    """Emit one JSONL file per requested split plus manifest.json.

    Fully deterministic in `master_seed`; pair coverage inside each split is
    uniform over that split's admissible pairs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {Split(s): int(n) for s, n in counts.items() if int(n) > 0}
    if not counts:
        raise InvalidSpec("no split has a positive sample count")

    if rule is ComposeRule.SINE:
        if counts.get(Split.TEST_HOLLOW, 0) > 0:
            raise InfeasiblePolicy("the sine task has no hollow split")
        pair_lists = None
    else:
        if policy is None:
            raise InvalidSpec(f"rule {rule.value} requires a split policy")
        cap = answer_policy.max_len
        if cap is not None and cap < policy.total_hi:
            raise InvalidSpec(f"answer cap {cap} shorter than the largest period {policy.total_hi}")
        by_class = admissible_pairs(rule, policy)
        pair_lists = {split: by_class[SPLIT_TO_CLASS[split]] for split in counts}
        for split, pairs in pair_lists.items():
            if not pairs:
                raise InfeasiblePolicy(f"no admissible (P1, P2) pairs for split {split.value}")

    files = {}
    for split in counts:
        name = f"{split.value}.jsonl"
        lines = []
        for i in range(counts[split]):
            rng = _record_rng(master_seed, split, i)
            if pair_lists is None:
                pair = (0, 0)
            else:
                pairs = pair_lists[split]
                pair = pairs[int(rng.integers(len(pairs)))]
            rec = make_record(rule, split, pair, i, rng, _MODULUS, answer_policy, task_params)
            lines.append(json.dumps(rec.to_dict(), sort_keys=True, separators=(",", ":")))
        write_atomic(out_dir / name, "\n".join(lines) + "\n")
        files[split] = name

    manifest = DatasetManifest(
        rule=rule,
        policy=policy if rule is not ComposeRule.SINE else None,
        counts=counts,
        master_seed=master_seed,
        modulus=_MODULUS,
        answer_policy=answer_policy,
        task_params=task_params,
        files=files,
    )
    manifest.save(out_dir / "manifest.json")
    return manifest


def load_records(data_dir: Path, split: Split) -> list[SampleRecord]:
    """Read one split back from a built dataset directory."""
    data_dir = Path(data_dir)
    manifest = DatasetManifest.load(data_dir / "manifest.json")
    if split not in manifest.files:
        return []
    records = []
    with open(data_dir / manifest.files[split]) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(SampleRecord.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ParseError(f"bad record ({exc})", line_no) from exc
    return records


# ---------------------------------------------------------------------------
# Independent verification.  Everything below re-derives targets straight
# from the record text and shares no code with the generators: operands are
# checked as repetitions of their first cycle, and the circular convolution
# comes from its closed form over residue classes (`_oracle_circconv`), not
# from the generator's sum over all lcm(P1, P2) shifts.
# ---------------------------------------------------------------------------


@dataclass
class VerificationFailure:
    file: str
    line_no: int
    reason: str


@dataclass
class VerificationReport:
    passed: bool
    records_checked: int
    failures: list = field(default_factory=list)

    def first_failure(self) -> VerificationFailure | None:
        return self.failures[0] if self.failures else None


# Any character a record may not hold: the codec could not encode it.
_FOREIGN = re.compile(f"[^{re.escape(codec.CHARS)}]")


def _text_minimal_period(text: str) -> int:
    n = len(text)
    for d in range(1, n + 1):
        if n % d == 0 and text[d:] == text[:n - d]:  # text equals itself shifted by d
            return d
    return n


def _repeat_to(seq, length: int):
    """The first `length` items of `seq` repeated forever."""
    return (seq * (length // len(seq) + 1))[:length]


def _oracle_circconv(a: list, b: list, length: int, modulus: int) -> str:
    """Digits t < length of sum_{m < N} a[m mod P1] * b[(t - m) mod P2], reduced.

    Over N = lcm(P1, P2), m <-> (m mod P1, m mod P2) is one-to-one onto the
    pairs that agree mod g = gcd(P1, P2), so each (i, j) with
    i + j = t (mod g) is met exactly once.  The sum is therefore
    sum_r A[r] * B[(t - r) mod g], where A and B sum each cycle over its
    residue classes mod g, and depends on t mod g alone.
    """
    g = math.gcd(len(a), len(b))
    sums_a = [sum(a[r::g]) for r in range(g)]
    sums_b = [sum(b[r::g]) for r in range(g)]
    period = "".join(str(sum(sums_a[r] * sums_b[(t - r) % g] for r in range(g)) % modulus)
                     for t in range(g))
    return _repeat_to(period, length)


def _oracle_two_cycle(rec: SampleRecord, modulus: int) -> str | None:
    """Recompute a two-operand target from the input text; None means a
    structural problem (reported separately)."""
    body = rec.input_text
    if not body.endswith("=") or body.count("+") != 1:
        return None
    s1, s2 = body[:-1].split("+")
    n = len(s1)
    if len(s2) != n or not s1.isdigit() or not s2.isdigit():
        return None
    p1, p2 = rec.p1, rec.p2
    if n * math.gcd(p1, p2) != p1 * p2:  # n must be lcm(p1, p2)
        return None
    if _text_minimal_period(s1) != p1 or _text_minimal_period(s2) != p2:
        return None
    a, b = [int(c) for c in s1[:p1]], [int(c) for c in s2[:p2]]
    length = len(rec.target_text)
    if rec.rule is ComposeRule.CIRC_CONV:
        return _oracle_circconv(a, b, length, modulus)
    a, b = _repeat_to(a, length), _repeat_to(b, length)
    if rec.rule is ComposeRule.ADD_SUB_ALT:
        b = [-v if t % 2 else v for t, v in enumerate(b)]
    return "".join([str((x + y) % modulus) for x, y in zip(a, b)])


def _check_record(rec: SampleRecord, manifest: DatasetManifest) -> str | None:
    """Return a failure reason, or None if the record checks out."""
    rule, modulus = rec.rule, manifest.modulus
    if rule is not manifest.rule:
        return f"rule {rule.value} does not match manifest rule {manifest.rule.value}"
    for text in (rec.input_text, rec.target_text):
        foreign = _FOREIGN.search(text)
        if foreign:
            return f"character {foreign.group()!r} at offset {foreign.start()} is not in the vocabulary"

    if rule is ComposeRule.SINE:
        if not rec.input_text.endswith("=") or len(rec.input_text) != 11:
            return "sine input is not a 10-char value plus '='"
        try:
            x = float(rec.input_text[:-1])
        except ValueError:
            return "sine input does not parse as a number"
        y = math.sin(x)
        expect = f"{y:+.7f}" if len(f"{y:+.7f}") == 10 else f"{y:+.6f}"
        if rec.target_text != expect:
            return f"sine target {rec.target_text!r} != recomputed {expect!r}"
        tp = manifest.task_params
        in_id = abs(x) <= tp.x_id_bound
        if rec.split is Split.TEST_EXTRAPOLATION and in_id:
            return f"x={x} inside the training range but labeled extrapolation"
        if rec.split in (Split.TRAIN, Split.TEST_ID) and not in_id:
            return f"x={x} outside the training range but labeled {rec.split.value}"
        return None

    # Period-pair tasks: the split label must match the policy classification.
    try:
        cls = classify_pair(rec.p1, rec.p2, manifest.policy)
    except OutOfRange as exc:
        return str(exc)
    if SPLIT_TO_CLASS[rec.split] is not cls:
        return f"pair ({rec.p1}, {rec.p2}) classifies as {cls.value} but sits in split {rec.split.value}"

    if rule in TWO_CYCLE_RULES:
        expect = _oracle_two_cycle(rec, modulus)
        if expect is None:
            return "input text is not two aligned exact-period operands"
        cap = manifest.answer_policy.answer_len(len(rec.input_text[:-1].split("+")[0]))
        if len(rec.target_text) != cap:
            return f"target length {len(rec.target_text)} != expected {cap}"
        if rec.target_text != expect:
            return f"target {rec.target_text!r} != oracle {expect!r}"
        return None

    if rule is ComposeRule.SINGLE_PERIOD:
        prompt = rec.input_text
        if not prompt.isdigit() or not rec.target_text.isdigit():
            return "continuation sample is not all digits"
        p = rec.p1
        if len(prompt) < 2 * p:
            return f"prompt length {len(prompt)} shorter than two cycles of {p}"
        cycle = prompt[:p]
        if _text_minimal_period(cycle) != p:
            return f"prompt cycle {cycle!r} has minimal period below {p}"
        if prompt != _repeat_to(cycle, len(prompt)):
            return "prompt is not a periodic extension of its first cycle"
        shift = len(prompt) % p
        expect = _repeat_to(cycle[shift:] + cycle[:shift], len(rec.target_text))
        if rec.target_text != expect:
            return f"target {rec.target_text!r} != continuation {expect!r}"
        return None

    if rule is ComposeRule.SCALED_SINGLE:
        tp = manifest.task_params
        if not rec.input_text.endswith(","):
            return "scaled prompt does not end at a value boundary"
        try:
            head = [int(v) for v in rec.input_text[:-1].split(",")]
            tail = [int(v) for v in rec.target_text.split(",")]
        except ValueError:
            return "scaled sample has non-integer values"
        full = head + tail
        p = rec.p1
        if len(full) != tp.repeats * p or len(head) != tp.prompt_blocks * p:
            return f"scaled sample has {len(full)} values, expected {tp.repeats * p}"
        base = full[:p]
        for r in range(tp.repeats):
            for i in range(p):
                if full[r * p + i] != base[i] * tp.factor**r:
                    return f"value at block {r} index {i} breaks the scaling rule"
        for d in range(1, p):
            if p % d == 0 and all(base[i] == base[i % d] for i in range(p)):
                return f"base block {base} has minimal period {d} < {p}"
        return None

    return f"unknown rule {rule!r}"  # pragma: no cover


# Verification stops at this many failures.
_MAX_FAILURES = 20


def verify_dataset(data_dir: Path) -> VerificationReport:
    """Re-derive every target, re-classify every pair, recheck every count."""
    data_dir = Path(data_dir)
    manifest = DatasetManifest.load(data_dir / "manifest.json")
    failures: list[VerificationFailure] = []
    checked = 0

    for split, name in manifest.files.items():
        path = data_dir / name
        if not path.exists():
            failures.append(VerificationFailure(name, 0, "split file missing"))
            continue
        n_lines = 0
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                n_lines += 1
                try:
                    rec = SampleRecord.from_dict(json.loads(line))
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    failures.append(VerificationFailure(name, line_no, f"parse error: {exc}"))
                    continue
                checked += 1
                if rec.split is not split:
                    failures.append(VerificationFailure(name, line_no, f"record split {rec.split.value} in file {name}"))
                    continue
                reason = _check_record(rec, manifest)
                if reason is not None:
                    failures.append(VerificationFailure(name, line_no, reason))
                if len(failures) >= _MAX_FAILURES:
                    return VerificationReport(False, checked, failures)
        if n_lines != manifest.counts.get(split, 0):
            failures.append(VerificationFailure(
                name, n_lines, f"{n_lines} records but manifest declares {manifest.counts.get(split, 0)}"))

    return VerificationReport(not failures, checked, failures)
