"""Lint: every counter/gauge/track name used in src/ is registered.

The registry (repro.obs.registry) is the contract between producers
(sync models, fault injector, network) and consumers (benches, reports,
dashboards). This test greps the source tree so an unregistered name
fails tier-1 instead of silently creating a counter nobody reads.
"""

import fnmatch
import re
from pathlib import Path

from repro.obs.registry import (
    ALL_NAMES,
    COUNTERS,
    COUNTER_TEMPLATES,
    GAUGES,
    HOOKS,
    TRACKS,
    is_registered_track,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: .incr("name") / .incr(f"name.{expr}") — first argument must be a string
#: literal for the lint to apply (dynamic passthroughs like export.py's
#: re-load loop only replay names that were linted at the original site).
_INCR = re.compile(r"""\.incr\(\s*(f?)(['"])([^'"]+)\2""")
_GAUGE = re.compile(r"""\.(?:gauge|gauge_delta)\(\s*(f?)(['"])([^'"]+)\2""")
#: Any string literal naming a sampled time-series track. The sampler
#: raises at runtime on unregistered names; this sweep catches producer
#: *and* consumer sites (probes, health, dashboard lookups) statically,
#: including ones a given test run never executes.
_TRACK_LITERAL = re.compile(
    r"""(f?)(['"])((?:timeseries|osp\.worker|multijob)\.[^'"]+)\2"""
)

#: The hook-list idiom, one regex per role: the owner creates the list in
#: its constructor, one loop calls it, subscribers append to it.
_HOOK_CREATED = re.compile(r"self\.(\w+)_hooks\b[^=\n]*= \[\]")
_HOOK_EMITTED = re.compile(r"for \w+ in [\w.]+\.(\w+)_hooks:")
_HOOK_SUBSCRIBED = re.compile(r"\.(\w+)_hooks\.append\(")


def _placeholder_regex(pattern: str) -> str:
    """``pattern`` as a regex whose ``{...}`` placeholders each match one
    dot-free segment (``{w}`` cannot swallow several dotted segments)."""
    return re.sub(r"\\\{[^}]*\\\}", r"[^.]+", re.escape(pattern))


def _samples(templates) -> list[str]:
    """One concrete instantiation of each template (placeholders -> ``0``)."""
    return [re.sub(r"\{[^}]*\}", "0", t) for t in templates]


def is_registered_counter(name: str) -> bool:
    """Is ``name`` a declared counter: a literal :data:`COUNTERS` member or
    a concrete instantiation of a :data:`COUNTER_TEMPLATES` entry?"""
    if name in COUNTERS:
        return True
    return any(re.fullmatch(_placeholder_regex(t), name) for t in COUNTER_TEMPLATES)


def pattern_matches_registered(pattern: str, names: frozenset[str] = COUNTERS) -> bool:
    """Does an f-string name template match >= 1 declared name?

    ``{expr}`` placeholders are single-segment wildcards, so
    ``"faults.{ev.kind}"`` matches ``faults.loss_burst`` but a template
    with an undeclared static prefix matches nothing. Counter producers of
    templated counters (``"netsim.job_bytes.{job}"``) match a sample
    instantiation of a :data:`COUNTER_TEMPLATES` entry.
    """
    glob = re.sub(r"\{[^}]*\}", "*", pattern)
    if any(fnmatch.fnmatchcase(n, glob) for n in names):
        return True
    if names is COUNTERS:
        regex = _placeholder_regex(pattern)
        return any(re.fullmatch(regex, s) for s in _samples(COUNTER_TEMPLATES))
    return False


def track_pattern_matches_registered(pattern: str) -> bool:
    """Does a (possibly f-string) track-name literal fit the registry?

    Each ``{expr}`` placeholder is a single-segment wildcard; the pattern
    must match a sample instantiation of some :data:`TRACKS` template or a
    declared gauge. Handles concrete names, producer templates
    (``osp.worker.{w}.staleness``) and consumer templates with wildcard
    suffixes (``osp.worker.{w}.{suffix}``) alike.
    """
    regex = _placeholder_regex(pattern)
    return any(re.fullmatch(regex, s) for s in [*_samples(TRACKS), *GAUGES])


def _call_sites(regex):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for m in regex.finditer(path.read_text()):
            found.append((path.relative_to(SRC), bool(m.group(1)), m.group(3)))
    return found


def test_lint_sees_the_known_call_sites():
    names = {name for _p, _f, name in _call_sites(_INCR)}
    assert "osp.deadline_miss" in names
    assert "faults.{ev.kind}" in names  # the f-string site in the injector


def test_every_incr_call_site_uses_a_registered_counter():
    sites = _call_sites(_INCR)
    assert sites, "lint found no .incr( call sites — regex rot?"
    for path, is_fstring, name in sites:
        if is_fstring:
            assert pattern_matches_registered(name), (
                f"{path}: counter template {name!r} matches no registered name"
            )
        else:
            assert is_registered_counter(name), (
                f"{path}: counter {name!r} not in repro.obs.registry.COUNTERS"
            )


def test_every_gauge_call_site_uses_a_registered_gauge():
    for path, is_fstring, name in _call_sites(_GAUGE):
        if is_fstring:
            assert pattern_matches_registered(name, GAUGES), (
                f"{path}: gauge template {name!r} matches no registered name"
            )
        else:
            assert name in GAUGES, (
                f"{path}: gauge {name!r} not in repro.obs.registry.GAUGES"
            )


def test_every_track_literal_is_registered():
    # Literals ending in '.' are startswith()-style prefixes, not names;
    # the multijob namespace holds counters too — those sites are linted
    # by the .incr sweep above, not the track sweep.
    sites = [
        s
        for s in _call_sites(_TRACK_LITERAL)
        if not s[2].endswith(".") and not is_registered_counter(s[2])
    ]
    assert sites, "lint found no time-series track literals — regex rot?"
    names = {name for _p, _f, name in sites}
    assert "timeseries.net.inflight_bytes" in names  # the NetworkProbe site
    assert any(n.startswith("osp.worker.") for n in names)
    assert any(n.startswith("multijob.") for n in names)  # the MultiJobProbe site
    for path, _is_fstring, name in sites:
        assert track_pattern_matches_registered(name), (
            f"{path}: time-series track {name!r} matches no registered "
            "TRACKS template or gauge"
        )


def test_every_hook_list_is_declared_emitted_once_and_subscribed():
    def names(regex):
        text = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py")))
        return sorted(regex.findall(text))

    assert names(_HOOK_CREATED) == sorted(HOOKS), "a *_hooks list is undeclared, or declared twice"
    assert names(_HOOK_EMITTED) == sorted(HOOKS), "each hook list has exactly one emitting loop"
    unused = HOOKS - set(names(_HOOK_SUBSCRIBED))
    assert not unused, f"hook lists nobody under src/ subscribes to: {sorted(unused)}"


def test_registry_namespaces_are_well_formed():
    for name in ALL_NAMES | COUNTER_TEMPLATES:
        prefix = name.split(".", 1)[0]
        assert prefix in {
            "osp",
            "faults",
            "obs",
            "ckpt",
            "elastic",
            "check",
            "netsim",
            "multijob",
        }, name
    for name in TRACKS:
        prefix = name.split(".", 1)[0]
        assert prefix in {"timeseries", "osp", "multijob"}, name
        assert "{" not in prefix


def test_pattern_matching_semantics():
    assert pattern_matches_registered("faults.{ev.kind}")
    assert not pattern_matches_registered("bogus.{x}")
    assert pattern_matches_registered("osp.deadline_miss")
    # templated counters: concrete instantiations and f-string producers
    assert is_registered_counter("netsim.job_bytes.osp")
    assert is_registered_counter("multijob.job_bytes")
    assert not is_registered_counter("netsim.job_bytes.a.b")
    assert pattern_matches_registered("netsim.job_bytes.{job}")
    assert not pattern_matches_registered("netsim.job_seconds.{job}")


def test_track_matching_semantics():
    # Concrete instantiations: placeholders bind one dot-free segment
    # (link names contain ':' but never '.').
    assert is_registered_track("osp.worker.3.compute_time")
    assert is_registered_track("timeseries.link.up:3.utilization")
    assert is_registered_track("osp.inflight_ics_bytes")  # gauge mirror
    assert not is_registered_track("osp.worker.3.made_up")
    assert not is_registered_track("osp.worker.a.b.compute_time")
    # Templates: producer style, consumer style with wildcard suffix.
    assert track_pattern_matches_registered("osp.worker.{w}.staleness")
    assert track_pattern_matches_registered("osp.worker.{w}.{suffix}")
    assert track_pattern_matches_registered("timeseries.link.{link.name}.queue_depth")
    assert not track_pattern_matches_registered("timeseries.cpu.{w}.load")
    assert not track_pattern_matches_registered("osp.worker.{w}.rss_bytes")
