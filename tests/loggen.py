"""Synthetic recognition-log generators with planted regularities."""

import random

from structkit.rules import Recognition


def planted_implication(seed: int, n_triggers: int = 250, p: float = 0.8,
                        window: int = 5, gap: tuple[int, int] = (11, 18)):
    """A at spaced ticks; X follows within the window with probability p.

    Distractor subjects B and C fire independently and sparsely.  Triggers
    are spaced beyond twice the window so hits never bleed across triggers.
    """
    rng = random.Random(seed)
    log = []
    t = rng.randint(0, 4)
    for _ in range(n_triggers):
        log.append(Recognition("A", round(rng.uniform(0.8, 1.0), 3), t))
        if rng.random() < p:
            dt = rng.randint(1, window)
            log.append(Recognition("X", round(rng.uniform(0.8, 1.0), 3), t + dt))
        for s in ("B", "C"):
            if rng.random() < 0.25:
                log.append(Recognition(s, round(rng.uniform(0.6, 1.0), 3),
                                       t + rng.randint(0, window)))
        t += rng.randint(*gap)
    log.sort(key=lambda r: (r.t, r.subject))
    return log


def absence_rule_log(seed: int, cycles: int = 40, wet: int = 18, dry: int = 12):
    """Subject W present every wet tick; during dry spells D appears.

    Plants the negative rule "no W over the window implies D": every tick
    whose recent window is W-free sees a D at most two ticks later.
    """
    rng = random.Random(seed)
    log = []
    t = 0
    for _ in range(cycles):
        for _ in range(wet):
            log.append(Recognition("W", round(rng.uniform(0.8, 1.0), 3), t))
            t += 1
        dry_start = t
        for k in range(dry):
            if k % 2 == 1:
                log.append(Recognition("D", round(rng.uniform(0.8, 1.0), 3), t))
            t += 1
        log.append(Recognition("D", round(rng.uniform(0.8, 1.0), 3), dry_start + dry))
    log.sort(key=lambda r: (r.t, r.subject))
    return log


def independent_noise(seed: int, length: int = 1200, rate: float = 0.04,
                      subjects=("E", "F", "G", "H")):
    """Uniform, independent events; nothing real to mine."""
    rng = random.Random(seed)
    log = []
    for t in range(length):
        for s in subjects:
            if rng.random() < rate:
                log.append(Recognition(s, round(rng.uniform(0.6, 1.0), 3), t))
    log.sort(key=lambda r: (r.t, r.subject))
    return log


def with_distractors(seed: int, log, k: int, rate: float = 0.04):
    """The log plus k independent subjects Z00.. over its tick span, each
    recognized on the same number of ticks, drawn by the seed."""
    rng = random.Random(seed)
    t0 = min(r.t for r in log)
    t1 = max(r.t for r in log)
    n = round(rate * (t1 - t0 + 1))
    extra = [Recognition(f"Z{i:02d}", round(rng.uniform(0.6, 1.0), 3), t)
             for i in range(k) for t in rng.sample(range(t0, t1 + 1), n)]
    return sorted(log + extra, key=lambda r: (r.t, r.subject))
