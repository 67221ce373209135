"""Deterministic request-trace generators for the serving simulator.

A serving workload is a sequence of :class:`Request` records sorted by
arrival time.  Every generator takes an explicit ``seed`` and draws from its
own ``random.Random`` instance, so a trace is a pure function of its
arguments — the property every serving test and the CLI's ``--seed`` flag
rely on.

Every Poisson-family generator exists in two forms: a lazy ``*_stream``
iterator that yields requests one at a time in arrival order (million-request
traces never materialise), and the original ``*_trace`` list API, now a thin
``list(...)`` wrapper around the stream.  Both forms draw from the RNG in
exactly the same order, so a wrapped list is element-for-element identical to
what the pre-streaming generators produced.

Four families cover the scenarios the registry exposes:

* :func:`poisson_trace` — memoryless arrivals with log-normal prompt/output
  lengths, the canonical "steady chat traffic" model;
* :func:`bursty_trace` — arrivals clustered into bursts (a thundering herd
  every ``burst_interval`` seconds), the pattern that separates colocated
  from disaggregated prefill (Section "prefill/decode interference");
* :func:`long_context_trace` — a mixture of short prompts and a heavy tail
  of very long prompts (RAG / long-document summarisation traffic);
* :func:`replay_trace` — verbatim replay of explicit
  ``(arrival, prompt, output)`` triples for table-driven tests.

Three further families model **shared prompt prefixes** (the traffic that
makes prefix-aware KV caching worthwhile).  A request's shareable prompt
head is declared symbolically as :attr:`Request.prefix` — an ordered tuple
of ``(segment_id, tokens)`` pairs, where equal segment ids denote equal
token content:

* :func:`shared_prefix_trace` — every request prepends one common system
  prompt (chat products, tool-use scaffolds);
* :func:`rag_corpus_trace` — requests retrieve documents from a shared
  corpus, popular documents drawn more often (Zipf-weighted), so prefix
  reuse competes for cache residency and exercises LRU eviction;
* :func:`agentic_tree_trace` — multi-turn agent sessions whose prompts grow
  by appending each turn's context, forming a prefix *tree*: every session
  chains off one shared scaffold, every turn extends its session's branch.

Two diurnal families model real traffic curves for the ``massive-*``
scenarios (non-homogeneous Poisson arrivals, generated by thinning against
the peak rate so determinism is preserved):

* :func:`diurnal_stream` — a sinusoidal day curve (trough at midnight, peak
  mid-day);
* :func:`weekly_stream` — seven diurnal days with a weekend trough.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Request",
    "poisson_trace",
    "poisson_stream",
    "bursty_trace",
    "bursty_stream",
    "long_context_trace",
    "long_context_stream",
    "shared_prefix_trace",
    "shared_prefix_stream",
    "rag_corpus_trace",
    "rag_corpus_stream",
    "diurnal_trace",
    "diurnal_stream",
    "weekly_trace",
    "weekly_stream",
    "agentic_tree_trace",
    "replay_trace",
    "merge_traces",
]


@dataclass(frozen=True, slots=True)
class Request:
    """One inference request as it enters the serving system.

    Slotted: million-request traces hold one of these per request.

    ``priority`` is only consulted by the priority admission policy; lower
    values are served first (0 is the default and the most urgent).

    ``prefix`` declares the shareable head of the prompt as ordered
    ``(segment_id, tokens)`` pairs — equal segment ids denote equal token
    content, so the simulator can decide KV-reuse without real tokens.  The
    engines only consult it when ``prefix_caching`` is enabled; an empty
    tuple (the default) makes the request behave exactly as before.

    ``session`` optionally names the conversation the request belongs to
    (the fleet's session-affinity router groups by it); ``None`` falls back
    to the fleet's id-modulo session assignment.

    ``tenant`` optionally names the tenant the request bills to.  Only the
    tenancy layer (fair scheduling, token-bucket admission, per-tenant
    metrics) consults it; ``None`` — the default — leaves every behaviour
    exactly as before.
    """

    request_id: int
    arrival_time: float
    prompt_tokens: int
    output_tokens: int
    priority: int = 0
    prefix: Tuple[Tuple[Hashable, int], ...] = field(default=())
    session: Optional[int] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        # ``not 0 <= t < inf`` also catches NaN, which fails every comparison.
        if not 0.0 <= self.arrival_time < math.inf:
            raise ValueError(
                f"request {self.request_id!r}: arrival_time must be non-negative "
                f"and finite, got {self.arrival_time!r}"
            )
        if self.prompt_tokens < 1:
            raise ValueError("prompt_tokens must be >= 1")
        if self.output_tokens < 1:
            raise ValueError("output_tokens must be >= 1")
        prefix_total = 0
        for _, tokens in self.prefix:
            if tokens < 1:
                raise ValueError("prefix segments must hold >= 1 token")
            prefix_total += tokens
        if prefix_total > self.prompt_tokens:
            raise ValueError(
                f"prefix covers {prefix_total} tokens but the prompt has "
                f"only {self.prompt_tokens}"
            )

    @property
    def prefix_tokens(self) -> int:
        """Tokens of the prompt covered by the declared shared prefix."""
        return sum(tokens for _, tokens in self.prefix)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens


def _lognormal_tokens(rng: random.Random, mean: float, cv: float, cap: int) -> int:
    """Draw a token count with the given mean and coefficient of variation."""
    import math

    if mean <= 0:
        raise ValueError("mean token count must be positive")
    if cv <= 0:
        return max(1, min(cap, int(round(mean))))
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - sigma2 / 2.0
    return max(1, min(cap, int(round(rng.lognormvariate(mu, math.sqrt(sigma2))))))


def poisson_stream(
    num_requests: int,
    arrival_rate: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    prompt_cv: float = 0.5,
    output_cv: float = 0.5,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    priority: int = 0,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Poisson arrivals at ``arrival_rate`` requests/second, yielded lazily."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")

    def generate() -> Iterator[Request]:
        rng = random.Random(seed)
        t = 0.0
        for i in range(num_requests):
            t += rng.expovariate(arrival_rate)
            yield Request(
                request_id=i,
                arrival_time=t,
                prompt_tokens=_lognormal_tokens(rng, prompt_mean, prompt_cv, max_prompt_tokens),
                output_tokens=_lognormal_tokens(rng, output_mean, output_cv, max_output_tokens),
                priority=priority,
                tenant=tenant,
            )

    return generate()


def poisson_trace(
    num_requests: int,
    arrival_rate: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    prompt_cv: float = 0.5,
    output_cv: float = 0.5,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    priority: int = 0,
    tenant: Optional[str] = None,
) -> List[Request]:
    """Poisson arrivals at ``arrival_rate`` requests/second."""
    return list(
        poisson_stream(
            num_requests,
            arrival_rate,
            prompt_mean,
            output_mean,
            seed=seed,
            prompt_cv=prompt_cv,
            output_cv=output_cv,
            max_prompt_tokens=max_prompt_tokens,
            max_output_tokens=max_output_tokens,
            priority=priority,
            tenant=tenant,
        )
    )


def bursty_stream(
    num_bursts: int,
    burst_size: int,
    burst_interval: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    prompt_cv: float = 0.25,
    output_cv: float = 0.25,
    intra_burst_spacing: float = 1e-3,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    priority: int = 0,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Bursts of ``burst_size`` near-simultaneous arrivals, yielded lazily.

    Requests inside a burst are staggered by ``intra_burst_spacing`` seconds
    so arrival order (and therefore FCFS order) is well defined.
    """
    if num_bursts < 1 or burst_size < 1:
        raise ValueError("num_bursts and burst_size must be >= 1")
    if burst_interval <= 0:
        raise ValueError("burst_interval must be positive")

    def generate() -> Iterator[Request]:
        rng = random.Random(seed)
        rid = 0
        for burst in range(num_bursts):
            base = burst * burst_interval
            for j in range(burst_size):
                yield Request(
                    request_id=rid,
                    arrival_time=base + j * intra_burst_spacing,
                    prompt_tokens=_lognormal_tokens(
                        rng, prompt_mean, prompt_cv, max_prompt_tokens
                    ),
                    output_tokens=_lognormal_tokens(
                        rng, output_mean, output_cv, max_output_tokens
                    ),
                    priority=priority,
                    tenant=tenant,
                )
                rid += 1

    return generate()


def bursty_trace(
    num_bursts: int,
    burst_size: int,
    burst_interval: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    prompt_cv: float = 0.25,
    output_cv: float = 0.25,
    intra_burst_spacing: float = 1e-3,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    priority: int = 0,
    tenant: Optional[str] = None,
) -> List[Request]:
    """Bursts of ``burst_size`` near-simultaneous arrivals every interval."""
    return list(
        bursty_stream(
            num_bursts,
            burst_size,
            burst_interval,
            prompt_mean,
            output_mean,
            seed=seed,
            prompt_cv=prompt_cv,
            output_cv=output_cv,
            intra_burst_spacing=intra_burst_spacing,
            max_prompt_tokens=max_prompt_tokens,
            max_output_tokens=max_output_tokens,
            priority=priority,
            tenant=tenant,
        )
    )


def long_context_stream(
    num_requests: int,
    arrival_rate: float,
    short_prompt_mean: int,
    long_prompt_mean: int,
    long_fraction: float,
    output_mean: int,
    seed: int = 0,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Poisson arrivals with a long-prompt heavy tail, yielded lazily.

    Models RAG / long-document traffic: most requests carry short prompts,
    a heavy tail carries prompts around ``long_prompt_mean`` tokens.
    """
    if not 0.0 <= long_fraction <= 1.0:
        raise ValueError("long_fraction must be in [0, 1]")

    def generate() -> Iterator[Request]:
        rng = random.Random(seed)
        t = 0.0
        for i in range(num_requests):
            t += rng.expovariate(arrival_rate)
            long = rng.random() < long_fraction
            mean = long_prompt_mean if long else short_prompt_mean
            yield Request(
                request_id=i,
                arrival_time=t,
                prompt_tokens=_lognormal_tokens(rng, mean, 0.3, max_prompt_tokens),
                output_tokens=_lognormal_tokens(rng, output_mean, 0.5, max_output_tokens),
                tenant=tenant,
            )

    return generate()


def long_context_trace(
    num_requests: int,
    arrival_rate: float,
    short_prompt_mean: int,
    long_prompt_mean: int,
    long_fraction: float,
    output_mean: int,
    seed: int = 0,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> List[Request]:
    """Poisson arrivals where a ``long_fraction`` of prompts is very long."""
    return list(
        long_context_stream(
            num_requests,
            arrival_rate,
            short_prompt_mean,
            long_prompt_mean,
            long_fraction,
            output_mean,
            seed=seed,
            max_prompt_tokens=max_prompt_tokens,
            max_output_tokens=max_output_tokens,
            tenant=tenant,
        )
    )


def shared_prefix_trace(
    num_requests: int,
    arrival_rate: float,
    prefix_tokens: int,
    suffix_mean: int,
    output_mean: int,
    seed: int = 0,
    suffix_cv: float = 0.5,
    output_cv: float = 0.5,
    prefix_id: Hashable = "system-prompt",
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> List[Request]:
    """Poisson arrivals that all share one ``prefix_tokens``-token prompt head.

    The canonical chat-product shape: a large common system prompt (tool
    definitions, policies, few-shot examples) followed by a short per-user
    suffix.  Every request carries the same single-segment prefix, so a
    prefix-aware KV cache serves all but the first request's prefix prefill
    from memory.
    """
    return list(
        shared_prefix_stream(
            num_requests,
            arrival_rate,
            prefix_tokens,
            suffix_mean,
            output_mean,
            seed=seed,
            suffix_cv=suffix_cv,
            output_cv=output_cv,
            prefix_id=prefix_id,
            max_output_tokens=max_output_tokens,
            tenant=tenant,
        )
    )


def shared_prefix_stream(
    num_requests: int,
    arrival_rate: float,
    prefix_tokens: int,
    suffix_mean: int,
    output_mean: int,
    seed: int = 0,
    suffix_cv: float = 0.5,
    output_cv: float = 0.5,
    prefix_id: Hashable = "system-prompt",
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Lazy iterator form of :func:`shared_prefix_trace` (same draws)."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if prefix_tokens < 1:
        raise ValueError("prefix_tokens must be >= 1")

    def generate() -> Iterator[Request]:
        rng = random.Random(seed)
        prefix = ((prefix_id, prefix_tokens),)
        t = 0.0
        for i in range(num_requests):
            t += rng.expovariate(arrival_rate)
            suffix = _lognormal_tokens(rng, suffix_mean, suffix_cv, 1_048_576)
            yield Request(
                request_id=i,
                arrival_time=t,
                prompt_tokens=prefix_tokens + suffix,
                output_tokens=_lognormal_tokens(rng, output_mean, output_cv, max_output_tokens),
                prefix=prefix,
                tenant=tenant,
            )

    return generate()


def rag_corpus_trace(
    num_requests: int,
    arrival_rate: float,
    num_documents: int,
    document_tokens: int,
    question_mean: int,
    output_mean: int,
    seed: int = 0,
    system_tokens: int = 0,
    zipf_exponent: float = 1.0,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> List[Request]:
    """RAG traffic over a shared corpus: prompt = system + document + question.

    Each request retrieves one of ``num_documents`` fixed documents, drawn
    Zipf-weighted (popular documents much more often) so the prefix cache
    sees skewed reuse: hot documents stay resident, cold ones are admitted
    and evicted LRU-first when the KV pool is short.  An optional common
    system prompt precedes every document, making the prefix two segments
    deep — requests for different documents still share the system blocks.
    """
    return list(
        rag_corpus_stream(
            num_requests,
            arrival_rate,
            num_documents,
            document_tokens,
            question_mean,
            output_mean,
            seed=seed,
            system_tokens=system_tokens,
            zipf_exponent=zipf_exponent,
            max_output_tokens=max_output_tokens,
            tenant=tenant,
        )
    )


def rag_corpus_stream(
    num_requests: int,
    arrival_rate: float,
    num_documents: int,
    document_tokens: int,
    question_mean: int,
    output_mean: int,
    seed: int = 0,
    system_tokens: int = 0,
    zipf_exponent: float = 1.0,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Lazy iterator form of :func:`rag_corpus_trace` (same draws)."""
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if num_documents < 1:
        raise ValueError("num_documents must be >= 1")
    if document_tokens < 1:
        raise ValueError("document_tokens must be >= 1")
    if system_tokens < 0:
        raise ValueError("system_tokens must be non-negative")

    def generate() -> Iterator[Request]:
        rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** zipf_exponent for rank in range(num_documents)]
        t = 0.0
        for i in range(num_requests):
            t += rng.expovariate(arrival_rate)
            document = rng.choices(range(num_documents), weights=weights)[0]
            prefix: Tuple[Tuple[Hashable, int], ...] = ((("doc", document), document_tokens),)
            prompt = document_tokens
            if system_tokens:
                prefix = (("rag-system", system_tokens),) + prefix
                prompt += system_tokens
            question = _lognormal_tokens(rng, question_mean, 0.4, 1_048_576)
            yield Request(
                request_id=i,
                arrival_time=t,
                prompt_tokens=prompt + question,
                output_tokens=_lognormal_tokens(rng, output_mean, 0.5, max_output_tokens),
                prefix=prefix,
                tenant=tenant,
            )

    return generate()


def diurnal_stream(
    num_requests: int,
    mean_rate: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    period: float = 86_400.0,
    amplitude: float = 0.6,
    prompt_cv: float = 0.5,
    output_cv: float = 0.5,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Sinusoidal day-curve arrivals (non-homogeneous Poisson), lazily.

    The instantaneous rate follows one sine period starting at the trough::

        rate(t) = mean_rate * (1 + amplitude * sin(2*pi*t/period - pi/2))

    so traffic bottoms out at ``mean_rate * (1 - amplitude)`` at t=0
    ("midnight") and peaks at ``mean_rate * (1 + amplitude)`` half a period
    in.  Arrivals are generated by thinning a homogeneous Poisson process at
    the peak rate — exact for any bounded rate function and a pure function
    of the seed, like every other generator here.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if mean_rate <= 0:
        raise ValueError("mean_rate must be positive")
    if period <= 0:
        raise ValueError("period must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")

    def rate(t: float) -> float:
        return mean_rate * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period - math.pi / 2.0))

    return _thinned_stream(
        num_requests,
        rate,
        mean_rate * (1.0 + amplitude),
        prompt_mean,
        output_mean,
        seed,
        prompt_cv,
        output_cv,
        max_prompt_tokens,
        max_output_tokens,
        tenant,
    )


def diurnal_trace(
    num_requests: int,
    mean_rate: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    period: float = 86_400.0,
    amplitude: float = 0.6,
    prompt_cv: float = 0.5,
    output_cv: float = 0.5,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> List[Request]:
    """List form of :func:`diurnal_stream` (identical draws)."""
    return list(
        diurnal_stream(
            num_requests,
            mean_rate,
            prompt_mean,
            output_mean,
            seed=seed,
            period=period,
            amplitude=amplitude,
            prompt_cv=prompt_cv,
            output_cv=output_cv,
            max_prompt_tokens=max_prompt_tokens,
            max_output_tokens=max_output_tokens,
            tenant=tenant,
        )
    )


def weekly_stream(
    num_requests: int,
    weekday_rate: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    weekend_factor: float = 0.45,
    amplitude: float = 0.6,
    day_seconds: float = 86_400.0,
    prompt_cv: float = 0.5,
    output_cv: float = 0.5,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Seven-day trace: diurnal weekdays with a weekend trough, lazily.

    Each day follows the :func:`diurnal_stream` sine curve around a per-day
    mean — ``weekday_rate`` for days 0-4, ``weekday_rate * weekend_factor``
    for days 5 and 6 (the trace repeats the week if ``num_requests``
    outlasts seven days).
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if weekday_rate <= 0:
        raise ValueError("weekday_rate must be positive")
    if not 0.0 < weekend_factor <= 1.0:
        raise ValueError("weekend_factor must be in (0, 1]")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if day_seconds <= 0:
        raise ValueError("day_seconds must be positive")

    def rate(t: float) -> float:
        day = int(t // day_seconds) % 7
        base = weekday_rate if day < 5 else weekday_rate * weekend_factor
        phase = (t % day_seconds) / day_seconds
        return base * (1.0 + amplitude * math.sin(2.0 * math.pi * phase - math.pi / 2.0))

    return _thinned_stream(
        num_requests,
        rate,
        weekday_rate * (1.0 + amplitude),
        prompt_mean,
        output_mean,
        seed,
        prompt_cv,
        output_cv,
        max_prompt_tokens,
        max_output_tokens,
        tenant,
    )


def weekly_trace(
    num_requests: int,
    weekday_rate: float,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
    weekend_factor: float = 0.45,
    amplitude: float = 0.6,
    day_seconds: float = 86_400.0,
    prompt_cv: float = 0.5,
    output_cv: float = 0.5,
    max_prompt_tokens: int = 1_048_576,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> List[Request]:
    """List form of :func:`weekly_stream` (identical draws)."""
    return list(
        weekly_stream(
            num_requests,
            weekday_rate,
            prompt_mean,
            output_mean,
            seed=seed,
            weekend_factor=weekend_factor,
            amplitude=amplitude,
            day_seconds=day_seconds,
            prompt_cv=prompt_cv,
            output_cv=output_cv,
            max_prompt_tokens=max_prompt_tokens,
            max_output_tokens=max_output_tokens,
            tenant=tenant,
        )
    )


def _thinned_stream(
    num_requests: int,
    rate,
    peak_rate: float,
    prompt_mean: int,
    output_mean: int,
    seed: int,
    prompt_cv: float,
    output_cv: float,
    max_prompt_tokens: int,
    max_output_tokens: int,
    tenant: Optional[str] = None,
) -> Iterator[Request]:
    """Thin a homogeneous Poisson process at ``peak_rate`` down to ``rate``.

    Candidate arrivals come at exponential gaps of the peak rate; each is
    kept with probability ``rate(t) / peak_rate``.  The kept points are an
    exact non-homogeneous Poisson process with intensity ``rate`` (Lewis &
    Shedler thinning), and the draw sequence is a pure function of ``seed``.
    """

    def generate() -> Iterator[Request]:
        rng = random.Random(seed)
        t = 0.0
        for i in range(num_requests):
            while True:
                t += rng.expovariate(peak_rate)
                if rng.random() * peak_rate < rate(t):
                    break
            yield Request(
                request_id=i,
                arrival_time=t,
                prompt_tokens=_lognormal_tokens(rng, prompt_mean, prompt_cv, max_prompt_tokens),
                output_tokens=_lognormal_tokens(rng, output_mean, output_cv, max_output_tokens),
                tenant=tenant,
            )

    return generate()


def agentic_tree_trace(
    num_sessions: int,
    turns_per_session: int,
    scaffold_tokens: int,
    turn_tokens: int,
    output_mean: int,
    seed: int = 0,
    session_rate: float = 0.5,
    turn_gap: float = 4.0,
    max_output_tokens: int = 8192,
    tenant: Optional[str] = None,
) -> List[Request]:
    """Multi-turn agent sessions forming a shared prefix *tree*.

    Every session starts from one common agent scaffold of
    ``scaffold_tokens`` (shared across *all* sessions); each turn's prompt
    is the scaffold plus the session's accumulated turns plus the new turn,
    so consecutive turns of a session share an ever-growing prefix branch.
    Sessions start Poisson-spaced at ``session_rate`` per second and turns
    follow ``turn_gap`` seconds apart (jittered), interleaving branches the
    way concurrent agent runs do.
    """
    if num_sessions < 1 or turns_per_session < 1:
        raise ValueError("num_sessions and turns_per_session must be >= 1")
    if scaffold_tokens < 1 or turn_tokens < 1:
        raise ValueError("scaffold_tokens and turn_tokens must be >= 1")
    rng = random.Random(seed)
    requests: List[Request] = []
    rid = 0
    session_start = 0.0
    for session in range(num_sessions):
        session_start += rng.expovariate(session_rate)
        t = session_start
        history: List[Tuple[Hashable, int]] = [("scaffold", scaffold_tokens)]
        history_tokens = scaffold_tokens
        for turn in range(turns_per_session):
            if turn:
                t += turn_gap * (0.5 + rng.random())
            new_turn = max(1, int(turn_tokens * (0.5 + rng.random())))
            requests.append(
                Request(
                    request_id=rid,
                    arrival_time=t,
                    prompt_tokens=history_tokens + new_turn,
                    output_tokens=_lognormal_tokens(
                        rng, output_mean, 0.4, max_output_tokens
                    ),
                    prefix=tuple(history),
                    session=session,
                    tenant=tenant,
                )
            )
            rid += 1
            # The next turn's prompt embeds this turn's input verbatim.
            history.append((("turn", session, turn), new_turn))
            history_tokens += new_turn
    requests.sort(key=lambda r: (r.arrival_time, r.request_id))
    return [replace(request, request_id=i) for i, request in enumerate(requests)]


def replay_trace(
    entries: Iterable[Tuple[float, int, int]],
    priority: int = 0,
    tenant: Optional[str] = None,
) -> List[Request]:
    """Build a trace from explicit ``(arrival, prompt, output)`` triples."""
    requests = [
        Request(
            request_id=i,
            arrival_time=float(arrival),
            prompt_tokens=int(prompt),
            output_tokens=int(output),
            priority=priority,
            tenant=tenant,
        )
        for i, (arrival, prompt, output) in enumerate(entries)
    ]
    return sorted(requests, key=lambda r: r.arrival_time)


def merge_traces(*traces: Sequence[Request]) -> List[Request]:
    """Merge traces into one arrival-ordered trace with fresh request ids."""
    merged = sorted(
        (request for trace in traces for request in trace),
        key=lambda r: (r.arrival_time, r.request_id),
    )
    return [replace(request, request_id=i) for i, request in enumerate(merged)]
