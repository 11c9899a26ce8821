"""Synthetic clinical-style corpus generator.

The real questionnaire data behind this problem is not shareable, so the
evaluation harness runs on generated datasets instead: short chief-complaint
texts drawn from per-cluster phrase banks (with perturbations covering every
transformation kind the similarity measure knows about) plus Gaussian numeric
features, with labels driven by a configurable mix of the numeric signal and
the text cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import read_settings
from .dataset import write_dataset_csv
from .errors import InvalidSpec

# Each cluster: (name, label effect, statement templates).  Several clusters
# come in confusable pairs that share vocabulary but pull the label in
# opposite directions; separating those is exactly what supervision buys.
PHRASE_BANKS: list[tuple[str, int, list[str]]] = [
    ("exertional chest pain", +1, [
        "chest pain with exercise",
        "cp during activity",
        "chest pain when running",
        "exertion brings on chest pain",
        "chest pain playing sports",
        "chest pain worse with exercise",
    ]),
    ("resting chest pain", -1, [
        "chest pain at rest",
        "chest pain while sitting",
        "cp at night in bed",
        "random chest pain watching tv",
        "chest pain when lying down",
        "resting chest pain",
    ]),
    ("chest pressure", +1, [
        "pressure in chest with exertion",
        "chest tightness during activity",
        "squeezing feeling in chest",
        "chest feels tight when running",
        "heavy pressure on chest",
        "tightness in the chest",
    ]),
    ("sharp brief pain", -1, [
        "sharp chest pain for seconds",
        "stabbing pain left side",
        "brief sharp pain in chest",
        "quick stabbing chest pain",
        "sharp pain lasts a few sec",
        "pinpoint sharp chest pain",
    ]),
    ("palpitations", +1, [
        "heart racing episodes",
        "hr out of nowhere",
        "heart pounding very fast",
        "palpitations during exercise",
        "racing heartbeat spells",
        "heart beats fast for min",
    ]),
    ("skipped beats", -1, [
        "heart skips a beat",
        "fluttering in the chest",
        "skipping heartbeat feeling",
        "occasional heart flutter",
        "flutter then normal heartbeat",
        "heart flutters at rest",
    ]),
    ("exertional syncope", +1, [
        "fainted during practice",
        "passed out while running",
        "syncope with exercise",
        "blackout on the field",
        "fainted at sports practice",
        "collapse during activity",
    ]),
    ("orthostatic dizziness", -1, [
        "dizzy when standing up",
        "lightheaded after standing",
        "dizzy spells in the morning",
        "woozy getting out of bed",
        "brief dizziness standing quickly",
        "feels faint when standing long",
    ]),
    ("exertional dyspnea", +1, [
        "sob with exercise",
        "short of breath running",
        "trouble breathing during activity",
        "cant catch breath with exertion",
        "breathing hard after one flight of stairs",
        "winded quickly during sports",
    ]),
    ("fatigue", -1, [
        "tired all the time",
        "fatigued with normal activity",
        "gets exhausted easily",
        "low energy for wk",
        "always tired after school",
        "worn out by small tasks",
    ]),
    ("reflux pain", -1, [
        "burning in chest after eating",
        "heartburn after meals",
        "burning chest pain at night",
        "reflux type burning feeling",
        "burning behind the breastbone",
        "chest burning after spicy food",
    ]),
    ("cough related pain", -1, [
        "chest hurts when coughing",
        "cough and chest pain",
        "pain with deep breath and cough",
        "chest sore from coughing",
        "coughing fits then chest ache",
        "chest wall pain after coughing",
    ]),
    ("family history concern", +1, [
        "fh of heart disease",
        "family history of murmur",
        "dad has a heart condition",
        "family heart problems run deep",
        "uncle died young of heart attack",
        "strong family history of cardiac issues",
    ]),
    ("murmur referral", +1, [
        "murmur found at checkup",
        "heart murmur on exam",
        "referred for murmur evaluation",
        "new murmur heard at physical",
        "doctor heard a whoosh sound",
        "murmur noted by pediatrician",
    ]),
    ("sports clearance", -1, [
        "sports physical clearance",
        "clearance for sports season",
        "evaluation before team tryouts",
        "needs form signed for sports",
        "routine sports checkup",
        "cleared to play checkup",
    ]),
    ("radiating pain", +1, [
        "chest pain radiating to arm",
        "pain spreads to left arm",
        "chest pain traveling to jaw",
        "arm pain with chest pain",
        "chest pain going down the arm",
        "cp radiating to shoulder",
    ]),
]

FILLER_STATEMENTS = [
    "started two wk ago",
    "for a few mo now",
    "happens a few times a week",
    "no other sx",
    "comes and goes",
    "worse lately",
]

# numeric signal lives in the first few features
NUMERIC_BETA = np.array([1.2, -1.0, 0.8, -0.6, 0.5, 0.4])


@dataclass(frozen=True)
class GeneratorSpec:
    m: int = 2000
    numeric_dim: int = 30
    clusters: int = 16
    text_weight: float = 0.5
    noise: float = 0.05
    alpha: float = 2.5            # label sharpness
    variants_per_template: int = 3
    second_statement_prob: float = 0.35
    third_statement_prob: float = 0.10
    filler_prob: float = 0.15
    perturb_prob: float = 0.7

    def __post_init__(self) -> None:
        if self.m < 2:
            raise InvalidSpec("m must be >= 2")
        if self.numeric_dim < 0:
            raise InvalidSpec("numeric_dim must be >= 0")
        if not 2 <= self.clusters <= len(PHRASE_BANKS):
            raise InvalidSpec(f"clusters must be in 2..{len(PHRASE_BANKS)}")
        if not 0.0 <= self.text_weight <= 1.0:
            raise InvalidSpec("text_weight must lie in [0, 1]")
        if not 0.0 <= self.noise <= 0.5:
            raise InvalidSpec("noise must lie in [0, 0.5]")
        if not 0 < self.alpha < np.inf or self.variants_per_template < 1:
            raise InvalidSpec("alpha (finite) and variants_per_template must be positive")


def parse_generator_spec(path: str | Path) -> GeneratorSpec:
    """A spec file: ``key = value`` lines naming GeneratorSpec fields."""
    types = {f.name: type(f.default) for f in fields(GeneratorSpec)}
    kwargs = {}
    for key, (val, where) in read_settings(path, InvalidSpec).items():
        if key not in types:
            raise InvalidSpec(f"{where}: unknown key {key!r}")
        try:
            kwargs[key] = types[key](val)
        except ValueError as exc:
            raise InvalidSpec(f"{where}: bad value for {key!r}: {exc}") from exc
    return GeneratorSpec(**kwargs)


# ---- text perturbations -----------------------------------------------

_SYNONYM_SWAPS = {
    "exercise": "activity", "activity": "exercise", "running": "exertion",
    "pain": "ache", "ache": "pain", "racing": "pounding", "pounding": "racing",
    "fluttering": "flutter", "dizzy": "lightheaded", "lightheaded": "woozy",
    "fainted": "syncope", "blackout": "fainted", "tired": "fatigued",
    "fatigued": "exhausted", "pressure": "tightness", "tightness": "squeezing",
    "sharp": "stabbing", "stabbing": "sharp", "burning": "heartburn",
    "spells": "episodes", "episodes": "spells", "murmur": "whoosh",
    "radiating": "spreading", "checkup": "physical", "worse": "worsening",
}

_ACRONYM_COLLAPSE = {
    ("chest", "pain"): "cp",
    ("heart", "racing"): "hr",
    ("family", "history"): "fh",
    ("physical", "exam"): "pe",
}

_ACRONYM_EXPAND = {v: k for k, v in _ACRONYM_COLLAPSE.items()}

_ABBREVIATION_SWAPS = {
    "minutes": "min", "min": "minutes", "seconds": "sec", "sec": "seconds",
    "palpitations": "palp", "symptoms": "sx", "weeks": "wk", "wk": "weeks",
    "months": "mo", "mo": "months",
}


def _misspell(token: str, rng: np.random.Generator) -> str:
    # stays within one Damerau-Levenshtein edit and keeps length >= 4
    if len(token) < 5:
        i = int(rng.integers(0, len(token) - 1))
        return token[:i] + token[i + 1] + token[i] + token[i + 2:]
    choice = int(rng.integers(0, 3))
    i = int(rng.integers(1, len(token) - 1))
    if choice == 0:
        return token[:i] + token[i + 1] + token[i] + token[i + 2:]
    if choice == 1:
        return token[:i] + token[i + 1:]
    return token[:i] + token[i] + token[i:]


def _perturb_statement(text: str, rng: np.random.Generator) -> str:
    """One random transformation-kind-exercising rewrite of a statement."""
    words = text.split()
    ops = []
    for i in range(len(words) - 1):
        for seq, short in _ACRONYM_COLLAPSE.items():
            if tuple(words[i:i + len(seq)]) == seq:
                ops.append(("collapse", i, len(seq), short))
    for i, w in enumerate(words):
        if w in _ACRONYM_EXPAND:
            ops.append(("expand", i, 1, " ".join(_ACRONYM_EXPAND[w])))
        if w in _SYNONYM_SWAPS:
            ops.append(("swap", i, 1, _SYNONYM_SWAPS[w]))
        if w in _ABBREVIATION_SWAPS:
            ops.append(("swap", i, 1, _ABBREVIATION_SWAPS[w]))
        if len(w) >= 4 and w.isalpha():
            ops.append(("misspell", i, 1, None))
        if len(w) >= 6 and w.isalpha():
            ops.append(("truncate", i, 1, None))
        if len(w) >= 8 and w.isalpha():
            ops.append(("tail", i, 1, None))
    if len(words) >= 2:
        i = int(rng.integers(0, len(words) - 1))
        ops.append(("concat", i, 2, None))
        ops.append(("drop", int(rng.integers(0, len(words))), 1, None))
    if not ops:
        return text
    op, i, span, arg = ops[int(rng.integers(0, len(ops)))]
    if op == "collapse":
        words[i:i + span] = [arg]
    elif op in ("expand", "swap"):
        words[i:i + span] = arg.split()
    elif op == "misspell":
        words[i] = _misspell(words[i], rng)
    elif op == "truncate":
        keep = int(rng.integers(4, len(words[i])))
        words[i] = words[i][:keep]
    elif op == "tail":
        keep = int(rng.integers(4, len(words[i]) - 2))
        words[i] = words[i][-keep:]
    elif op == "concat":
        words[i:i + 2] = [words[i] + words[i + 1]]
    elif op == "drop":
        del words[i]
        if not words:
            return text
    return " ".join(words)


def generate_arrays(spec: GeneratorSpec, seed: int):
    """Generate (ids, labels, numeric, texts, clusters) for one dataset."""
    rng = np.random.default_rng(seed)
    banks = PHRASE_BANKS[: spec.clusters]

    # fixed per-dataset statement pools keep the number of distinct strings
    # small, which the similarity cache exploits
    pools: list[list[str]] = []
    for _, _, templates in banks:
        pool = []
        for template in templates:
            pool.append(template)
            for _ in range(spec.variants_per_template - 1):
                if rng.random() < spec.perturb_prob:
                    pool.append(_perturb_statement(template, rng))
                else:
                    pool.append(template)
        pools.append(sorted(set(pool)))
    filler_pool = list(FILLER_STATEMENTS)

    beta = NUMERIC_BETA[: max(0, min(spec.numeric_dim, NUMERIC_BETA.shape[0]))]
    beta_norm = float(np.linalg.norm(beta)) if beta.size else 1.0

    ids = [f"r{i:05d}" for i in range(spec.m)]
    numeric = rng.standard_normal((spec.m, spec.numeric_dim))
    clusters = rng.integers(0, spec.clusters, size=spec.m)
    texts = []
    labels = np.empty(spec.m, dtype=int)
    delims = [", ", " / ", "; "]
    for i in range(spec.m):
        c = int(clusters[i])
        pool = pools[c]
        statements = [pool[int(rng.integers(0, len(pool)))]]
        if rng.random() < spec.second_statement_prob:
            statements.append(pool[int(rng.integers(0, len(pool)))])
            if rng.random() < spec.third_statement_prob:
                statements.append(pool[int(rng.integers(0, len(pool)))])
        if rng.random() < spec.filler_prob:
            statements.append(filler_pool[int(rng.integers(0, len(filler_pool)))])
        delim = delims[int(rng.integers(0, len(delims)))]
        texts.append(delim.join(statements))

        numeric_score = float(numeric[i, : beta.size] @ beta) / beta_norm if beta.size else 0.0
        effect = float(banks[c][1])
        score = (1.0 - spec.text_weight) * numeric_score + spec.text_weight * effect
        p = 1.0 / (1.0 + np.exp(-spec.alpha * score))
        label = int(rng.random() < p)
        if rng.random() < spec.noise:
            label = 1 - label
        labels[i] = label
    return ids, labels, numeric, texts, clusters


def generate_synthetic(spec: GeneratorSpec, seed: int, out_path: str | Path) -> None:
    """Write a synthetic dataset CSV; byte-identical for identical inputs."""
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed)
    write_dataset_csv(out_path, ids, labels, numeric, texts)
