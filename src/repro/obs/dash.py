"""`repro dash`: self-contained static HTML dashboard + CSV/Prometheus exports.

Renders a sampled run (:class:`~repro.obs.timeseries.MetricSampler`) into a
single HTML file with inline-SVG time-series charts — no external scripts,
stylesheets, fonts or network fetches. Fault windows (from the tracer's
``cat="fault"`` spans, falling back to ``FaultSchedule.windows()``) are
shaded as labelled regions behind every chart.

Chart conventions (one consistent grammar across the file):

* lines are 2px round-capped with a ~10%-opacity area wash; the last point
  carries an 8px end-dot with a 2px surface ring and a direct end label;
* per-worker overlays use a fixed categorical palette (assigned by worker
  id, never re-ordered by rank) with a legend; single-series charts use
  slot 1 and no legend;
* text (labels, values, legends) always uses ink tokens, never the series
  color; every chart group has a table-view twin, and the full samples are
  available via :func:`export_csv`;
* hover shows a crosshair + tooltip (inline JS, keyboard-reachable values
  stay in the tables).
"""

from __future__ import annotations

import html
import json
from typing import Optional

from repro.obs.health import health_report

#: Validated categorical palette (light, dark) — fixed slot order; worker
#: *w* always wears slot ``w % 8`` so identity survives filtering/re-runs.
_PALETTE = [
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
    ("#e34948", "#e66767"),  # red
]

#: Cap on overlaid series per chart (past 8 the palette would cycle).
_MAX_OVERLAY = 8

_W, _H = 560, 120  # chart viewBox; plot area inset by the margins below
_ML, _MR, _MT, _MB = 8, 86, 8, 18


def _fmt(v: float) -> str:
    """Compact human number: 1.28K / 4.2M / 3.1G; small values get 3 sf."""
    a = abs(v)
    for cut, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if a >= cut:
            return f"{v / cut:.3g}{suffix}"
    if a >= 1:
        return f"{v:.3g}"
    if a == 0:
        return "0"
    return f"{v:.3g}"


def fault_windows_from_tracer(tracer) -> list[dict]:
    """``cat="fault"`` spans as ``{kind, start, end, detail}`` windows."""
    out = []
    for span in getattr(tracer, "spans", []) or []:
        if span.cat != "fault" or span.end is None:
            continue
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(span.attrs.items()) if k != "kind"
        )
        out.append(
            {
                "kind": span.name.removeprefix("faults."),
                "start": span.start,
                "end": span.end,
                "detail": detail,
            }
        )
    out.sort(key=lambda w: (w["start"], w["kind"]))
    return out


def fault_windows_from_schedule(schedule) -> list[dict]:
    """Planned windows from :meth:`FaultSchedule.windows` (untraced runs)."""
    if not schedule:
        return []
    return [
        {"kind": kind, "start": start, "end": start + duration, "detail": detail}
        for kind, start, duration, detail in schedule.windows()
    ]


class _Chart:
    """One inline-SVG line chart with overlay series + shaded fault regions."""

    def __init__(self, cid: str, title: str, t_max: float, faults: list[dict]) -> None:
        self.cid = cid
        self.title = title
        self.t_max = max(t_max, 1e-9)
        self.faults = faults
        self.series: list[tuple[str, int, list[float], list[float]]] = []

    def add(self, label: str, slot: int, times, values) -> None:
        if len(times):
            self.series.append((label, slot % 8, list(times), list(values)))

    def _scale(self):
        vals = [v for _l, _s, _t, vs in self.series for v in vs]
        lo, hi = min(vals), max(vals)
        if hi - lo < 1e-12:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        px = _W - _ML - _MR
        py = _H - _MT - _MB

        def x(t: float) -> float:
            return _ML + px * (t / self.t_max)

        def y(v: float) -> float:
            return _MT + py * (1.0 - (v - lo) / (hi - lo))

        return x, y, lo + pad, hi - pad

    def svg(self) -> str:
        if not self.series:
            return '<p class="muted">no samples</p>'
        x, y, vlo, vhi = self._scale()
        parts = [
            f'<svg class="spark" data-chart="{self.cid}" viewBox="0 0 {_W} {_H}" '
            f'role="img" aria-label="{html.escape(self.title)}" '
            'preserveAspectRatio="none">'
        ]
        # Fault windows first: shaded regions behind every mark.
        for w in self.faults:
            x0, x1 = x(w["start"]), x(min(w["end"], self.t_max))
            if x1 <= x0:
                continue
            parts.append(
                f'<rect class="fault" x="{x0:.1f}" y="{_MT}" '
                f'width="{x1 - x0:.1f}" height="{_H - _MT - _MB}">'
                f'<title>{html.escape(w["kind"])} {html.escape(w["detail"])}</title></rect>'
            )
        # Baseline + min/max tick labels (the values not directly labelled).
        parts.append(
            f'<line class="axis" x1="{_ML}" y1="{_H - _MB}" '
            f'x2="{_W - _MR}" y2="{_H - _MB}"/>'
        )
        parts.append(
            f'<text class="tick" x="{_W - _MR + 6}" y="{_MT + 8}">{_fmt(vhi)}</text>'
        )
        parts.append(
            f'<text class="tick" x="{_W - _MR + 6}" y="{_H - _MB}">{_fmt(vlo)}</text>'
        )
        for label, slot, ts, vs in self.series:
            pts = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in zip(ts, vs))
            area = (
                f"{x(ts[0]):.1f},{_H - _MB} " + pts + f" {x(ts[-1]):.1f},{_H - _MB}"
            )
            parts.append(f'<polygon class="wash s{slot}" points="{area}"/>')
            parts.append(f'<polyline class="line s{slot}" points="{pts}"/>')
        # End-dots + one selective direct label (the last value) per series.
        for i, (label, slot, ts, vs) in enumerate(self.series):
            ex, ey = x(ts[-1]), y(vs[-1])
            parts.append(f'<circle class="dot s{slot}" cx="{ex:.1f}" cy="{ey:.1f}" r="4"/>')
            if len(self.series) == 1:
                parts.append(
                    f'<text class="end" x="{ex + 8:.1f}" y="{ey + 3:.1f}">'
                    f"{_fmt(vs[-1])}</text>"
                )
        parts.append(
            f'<line class="xhair" x1="-10" y1="{_MT}" x2="-10" y2="{_H - _MB}"/>'
        )
        parts.append("</svg>")
        return "".join(parts)

    def data_json(self) -> str:
        x, y, _lo, _hi = self._scale()
        payload = {
            "tmax": self.t_max,
            "ml": _ML,
            "pw": _W - _ML - _MR,
            "vw": _W,
            "series": [
                {"label": l, "slot": s, "t": [round(t, 6) for t in ts],
                 "v": vs}
                for l, s, ts, vs in self.series
            ],
        }
        return json.dumps(payload)

    def legend(self) -> str:
        if len(self.series) < 2:
            return ""
        chips = "".join(
            f'<span class="chip"><i class="sw s{s}"></i>{html.escape(l)}</span>'
            for l, s, _t, _v in self.series
        )
        return f'<div class="legend">{chips}</div>'

    def table(self) -> str:
        rows = "".join(
            f"<tr><td>{html.escape(l)}</td><td>{_fmt(min(vs))}</td>"
            f"<td>{_fmt(sum(vs) / len(vs))}</td><td>{_fmt(max(vs))}</td>"
            f"<td>{_fmt(vs[-1])}</td><td>{len(vs)}</td></tr>"
            for l, _s, _t, vs in self.series
        )
        return (
            "<details><summary>Table view</summary><table class=\"tv\">"
            "<thead><tr><th>series</th><th>min</th><th>mean</th><th>max</th>"
            "<th>last</th><th>n</th></tr></thead>"
            f"<tbody>{rows}</tbody></table></details>"
        )

    def render(self) -> str:
        return (
            f'<figure class="chart" id="fig-{self.cid}">'
            f"<figcaption>{html.escape(self.title)}</figcaption>"
            + self.svg()
            + f'<script type="application/json" id="d-{self.cid}">'
            + self.data_json().replace("</", "<\\/")
            + "</script>"
            + self.legend()
            + self.table()
            + "</figure>"
        )


def _style() -> str:
    light = "".join(f"--s{i}:{l};" for i, (l, _d) in enumerate(_PALETTE))
    dark = "".join(f"--s{i}:{d};" for i, (_l, d) in enumerate(_PALETTE))
    series_css = "".join(
        f".line.s{i}{{stroke:var(--s{i})}}"
        f".wash.s{i}{{fill:var(--s{i})}}"
        f".dot.s{i}{{fill:var(--s{i})}}"
        f".sw.s{i}{{background:var(--s{i})}}"
        for i in range(8)
    )
    return f"""<style>
:root{{color-scheme:light;
  --surface:#fcfcfb;--page:#f9f9f7;--ink:#0b0b0b;--ink2:#52514e;
  --muted:#898781;--grid:#e1e0d9;--axis:#c3c2b7;--critical:#d03b3b;
  --serious:#ec835a;{light}}}
@media (prefers-color-scheme: dark){{:root:not([data-theme=light]){{color-scheme:dark;
  --surface:#1a1a19;--page:#0d0d0d;--ink:#ffffff;--ink2:#c3c2b7;
  --muted:#898781;--grid:#2c2c2a;--axis:#383835;--critical:#d03b3b;
  --serious:#ec835a;{dark}}}}}
:root[data-theme=dark]{{color-scheme:dark;
  --surface:#1a1a19;--page:#0d0d0d;--ink:#ffffff;--ink2:#c3c2b7;
  --muted:#898781;--grid:#2c2c2a;--axis:#383835;--critical:#d03b3b;
  --serious:#ec835a;{dark}}}
*{{box-sizing:border-box}}
body{{margin:0;background:var(--page);color:var(--ink);
  font:14px/1.45 system-ui,-apple-system,"Segoe UI",sans-serif;padding:24px}}
h1{{font-size:20px;margin:0 0 2px}}
.sub{{color:var(--ink2);margin:0 0 20px}}
.muted{{color:var(--muted)}}
.tiles{{display:flex;gap:12px;flex-wrap:wrap;margin-bottom:24px}}
.tile{{background:var(--surface);border:1px solid var(--grid);border-radius:8px;
  padding:12px 16px;min-width:130px}}
.tile .label{{color:var(--ink2);font-size:12px}}
.tile .value{{font-size:26px;font-weight:600}}
.tile.hero .value{{font-size:48px}}
section{{margin-bottom:28px}}
section>h2{{font-size:15px;margin:0 0 10px;color:var(--ink)}}
.grid{{display:grid;grid-template-columns:repeat(auto-fill,minmax(380px,1fr));gap:14px}}
figure.chart{{background:var(--surface);border:1px solid var(--grid);
  border-radius:8px;margin:0;padding:10px 12px;position:relative}}
figcaption{{font-size:12px;color:var(--ink2);margin-bottom:4px}}
svg.spark{{width:100%;height:120px;display:block}}
.line{{fill:none;stroke-width:2;stroke-linecap:round;stroke-linejoin:round;
  vector-effect:non-scaling-stroke}}
.wash{{opacity:.1;stroke:none}}
.dot{{stroke:var(--surface);stroke-width:2}}
.axis{{stroke:var(--axis);stroke-width:1}}
.tick,.end{{font:10px system-ui,sans-serif;fill:var(--muted);
  font-variant-numeric:tabular-nums}}
.end{{fill:var(--ink2)}}
.fault{{fill:var(--serious);opacity:.14}}
.xhair{{stroke:var(--axis);stroke-width:1}}
.legend{{display:flex;gap:10px;flex-wrap:wrap;margin-top:6px}}
.chip{{display:inline-flex;align-items:center;gap:5px;font-size:11px;
  color:var(--ink2)}}
.sw{{display:inline-block;width:10px;height:10px;border-radius:3px}}
.chip .sw.fault-sw{{background:var(--serious);opacity:.4}}
details{{margin-top:6px;font-size:12px}}
summary{{color:var(--muted);cursor:pointer}}
table.tv{{border-collapse:collapse;margin-top:6px;width:100%}}
table.tv th,table.tv td{{text-align:right;padding:2px 8px;
  border-bottom:1px solid var(--grid);font-variant-numeric:tabular-nums}}
table.tv th:first-child,table.tv td:first-child{{text-align:left}}
table.health{{border-collapse:collapse;width:100%;background:var(--surface);
  border:1px solid var(--grid);border-radius:8px}}
table.health th,table.health td{{text-align:right;padding:6px 12px;
  border-bottom:1px solid var(--grid);font-variant-numeric:tabular-nums}}
table.health th:first-child,table.health td:first-child{{text-align:left}}
.flag{{color:var(--critical);font-weight:600}}
#tip{{position:fixed;pointer-events:none;background:var(--surface);
  border:1px solid var(--axis);border-radius:6px;padding:6px 9px;font-size:11px;
  color:var(--ink);display:none;z-index:9;box-shadow:0 2px 8px rgba(0,0,0,.12)}}
#tip .t{{color:var(--muted);margin-bottom:2px}}
#tip .row{{display:flex;align-items:center;gap:5px;
  font-variant-numeric:tabular-nums}}
{series_css}
</style>"""


_SCRIPT = """<script>
(function () {
  var tip = document.createElement('div');
  tip.id = 'tip';
  document.body.appendChild(tip);
  document.querySelectorAll('svg.spark').forEach(function (svg) {
    var data = JSON.parse(
      document.getElementById('d-' + svg.dataset.chart).textContent);
    var xhair = svg.querySelector('.xhair');
    svg.addEventListener('mousemove', function (ev) {
      var box = svg.getBoundingClientRect();
      var frac = ((ev.clientX - box.left) / box.width * data.vw - data.ml)
        / data.pw;
      var t = Math.min(Math.max(frac, 0), 1) * data.tmax;
      var rows = '<div class="t">t = ' + t.toFixed(2) + 's</div>';
      var tx = null;
      data.series.forEach(function (s) {
        var i = 0;
        while (i + 1 < s.t.length && s.t[i + 1] <= t) i++;
        if (i + 1 < s.t.length && t - s.t[i] > s.t[i + 1] - t) i++;
        if (tx === null) tx = s.t[i];
        rows += '<div class="row"><i class="sw s' + s.slot + '"></i>' +
          s.label + ': ' + Number(s.v[i].toPrecision(4)) + '</div>';
      });
      if (tx !== null) {
        xhair.setAttribute('x1', data.ml + tx / data.tmax * data.pw);
        xhair.setAttribute('x2', data.ml + tx / data.tmax * data.pw);
      }
      tip.innerHTML = rows;
      tip.style.display = 'block';
      tip.style.left = (ev.clientX + 14) + 'px';
      tip.style.top = (ev.clientY + 10) + 'px';
    });
    svg.addEventListener('mouseleave', function () {
      tip.style.display = 'none';
      xhair.setAttribute('x1', -10);
      xhair.setAttribute('x2', -10);
    });
  });
})();
</script>"""


def render_dashboard(result, sampler=None, title: Optional[str] = None) -> str:
    """Render a sampled run as one self-contained HTML page."""
    if sampler is None:
        sampler = getattr(result, "sampler", None)
    if sampler is None:
        raise ValueError(
            "render_dashboard needs a sampled run: call "
            "trainer.enable_sampling() before run(), or pass sampler="
        )
    tracer = getattr(result, "tracer", None)
    faults = fault_windows_from_tracer(tracer)
    if not faults:
        faults = fault_windows_from_schedule(
            getattr(result.context.spec, "faults", None)
        )
    t_max = float(result.wall_time)
    health = health_report(result, sampler)
    title = title or f"{result.sync_name} run"

    workers = sorted(
        {
            int(name.split(".")[2])
            for name in sampler.series
            if name.startswith("osp.worker.")
        }
    )
    shown = workers[:_MAX_OVERLAY]

    def worker_chart(cid: str, caption: str, suffix: str) -> Optional[_Chart]:
        chart = _Chart(cid, caption, t_max, faults)
        for w in shown:
            s = sampler.series.get(f"osp.worker.{w}.{suffix}")
            if s is not None and len(s):
                chart.add(f"worker {w}", w, s.times, s.values)
        return chart if chart.series else None

    sections: list[str] = []

    # -- per-worker health ---------------------------------------------------
    rows = []
    for wh in health.workers:
        flag = (
            ' <span class="flag" title="straggler">&#9888; straggler</span>'
            if wh.is_straggler
            else ""
        )
        stale_max = max(wh.staleness_hist) if wh.staleness_hist else 0
        rows.append(
            f"<tr><td>worker {wh.worker}{flag}</td><td>{wh.iterations}</td>"
            f"<td>{wh.mean_compute:.4f}</td><td>{wh.mean_sync:.4f}</td>"
            f"<td>{wh.straggler_z:+.2f}</td><td>{wh.utilization:.1%}</td>"
            f"<td>{stale_max}</td>"
            f"<td>{_fmt(wh.mean_effective_bandwidth)}B/s</td>"
            f"<td>{_fmt(wh.peak_ics_backlog)}B</td></tr>"
        )
    charts = [
        c
        for c in (
            worker_chart("w-compute", "compute time (s)", "compute_time"),
            worker_chart("w-sync", "sync time / BST (s)", "sync_time"),
            worker_chart("w-stale", "observed staleness (iterations)", "staleness"),
            worker_chart("w-backlog", "ICS backlog (bytes)", "ics_backlog_bytes"),
            worker_chart("w-bw", "effective uplink bandwidth (B/s)", "effective_bandwidth"),
        )
        if c is not None
    ]
    note = (
        f'<p class="muted">showing workers {shown[0]}–{shown[-1]} of '
        f"{len(workers)} in overlays; the table covers all workers</p>"
        if len(workers) > _MAX_OVERLAY
        else ""
    )
    sections.append(
        "<section><h2>Per-worker health</h2>"
        '<table class="health"><thead><tr><th>worker</th><th>iters</th>'
        "<th>mean compute (s)</th><th>mean BST (s)</th><th>straggler z</th>"
        "<th>util</th><th>stale max</th><th>mean uplink</th>"
        "<th>peak ICS backlog</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>{note}"
        f'<div class="grid" style="margin-top:14px">'
        + "".join(c.render() for c in charts)
        + "</div></section>"
    )

    # -- protocol + cluster gauges ------------------------------------------
    gauge_caps = {
        "osp.sgu_budget": "Eq. 5 S(Gᵘ) budget (bytes)",
        "osp.u_max": "U_max upper bound (bytes)",
        "osp.inflight_ics_bytes": "in-flight ICS (bytes)",
        "osp.quorum_size": "quorum size",
        "obs.ps.version": "PS version",
        "timeseries.net.inflight_bytes": "network in-flight (bytes)",
        "timeseries.net.active_flows": "active flows",
        "timeseries.ps.pending_deposits": "PS pending deposits",
        "timeseries.ps.open_buckets": "PS open buckets",
    }
    cluster = []
    for name, caption in gauge_caps.items():
        s = sampler.series.get(name)
        if s is None or not len(s):
            continue
        chart = _Chart(name.replace(".", "-"), caption, t_max, faults)
        chart.add(name, 0, s.times, s.values)
        cluster.append(chart.render())
    if cluster:
        sections.append(
            "<section><h2>Protocol &amp; cluster</h2>"
            f'<div class="grid">{"".join(cluster)}</div></section>'
        )

    # -- per-link utilisation ------------------------------------------------
    links = sorted(
        {
            name.split(".")[2]
            for name in sampler.series
            if name.startswith("timeseries.link.")
        }
    )
    link_charts = []
    for link in links:
        s = sampler.series.get(f"timeseries.link.{link}.utilization")
        if s is None or not len(s):
            continue
        chart = _Chart(
            "link-" + link.replace(":", "-"), f"link {link} utilisation", t_max, faults
        )
        chart.add(link, 0, s.times, s.values)
        link_charts.append(chart.render())
    if link_charts:
        sections.append(
            "<section><h2>Links</h2>"
            f'<div class="grid">{"".join(link_charts)}</div></section>'
        )

    fault_chip = (
        '<span class="chip"><i class="sw fault-sw"></i>&#9888; fault window'
        f" ({len(faults)})</span>"
        if faults
        else ""
    )
    stragglers = (
        ", ".join(f"worker {w}" for w in health.stragglers) or "none"
    )
    head = (
        f"<h1>{html.escape(title)}</h1>"
        f'<p class="sub">sync={html.escape(result.sync_name)} · '
        f"{len(result.recorder.iterations)} iterations · "
        f"{sampler.samples_taken} samples @ {sampler.interval:.3g}s · "
        f"stragglers: {html.escape(stragglers)} {fault_chip}</p>"
        '<div class="tiles">'
        '<div class="tile hero"><div class="label">wall time (virtual s)</div>'
        f'<div class="value">{result.wall_time:.2f}</div></div>'
        '<div class="tile"><div class="label">throughput (samples/s)</div>'
        f'<div class="value">{_fmt(result.throughput)}</div></div>'
        '<div class="tile"><div class="label">mean BST (s)</div>'
        f'<div class="value">{result.mean_bst:.3f}</div></div>'
        '<div class="tile"><div class="label">mean BCT (s)</div>'
        f'<div class="value">{result.mean_bct:.3f}</div></div>'
        "</div>"
    )
    return (
        "<!doctype html><html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        '<meta name="viewport" content="width=device-width,initial-scale=1">'
        + _style()
        + "</head><body>"
        + head
        + "".join(sections)
        + _SCRIPT
        + "</body></html>"
    )


def export_csv(sampler) -> str:
    """All samples in long format: ``time,track,value`` (header included)."""
    lines = ["time,track,value"]
    for name in sorted(sampler.series):
        s = sampler.series[name]
        for t, v in zip(s.times.tolist(), s.values.tolist()):
            # .tolist() yields python floats: repr is the shortest exact
            # form, not numpy's "np.float64(...)" wrapper.
            lines.append(f"{t!r},{name},{v!r}")
    return "\n".join(lines) + "\n"


def export_prometheus(sampler) -> str:
    """Last sampled values in Prometheus text exposition format.

    Per-worker and per-link tracks become labelled metrics
    (``repro_osp_worker_compute_time{worker="3"}``); everything else is a
    plain gauge named after the track with dots → underscores, every name
    under the ``repro_`` prefix.
    """
    groups: dict[str, list[tuple[str, float]]] = {}
    for name in sorted(sampler.series):
        s = sampler.series[name]
        last = s.last()
        if last is None:
            continue
        _t, value = last
        parts = name.split(".")
        if name.startswith("osp.worker.") and len(parts) == 4:
            metric = f"repro_osp_worker_{parts[3]}"
            label = f'worker="{parts[2]}"'
        elif name.startswith("timeseries.link.") and len(parts) == 4:
            metric = f"repro_timeseries_link_{parts[3]}"
            label = f'link="{parts[2]}"'
        else:
            metric = "repro_" + name.replace(".", "_")
            label = ""
        groups.setdefault(metric, []).append((label, value))
    lines = []
    for metric in sorted(groups):
        lines.append(f"# TYPE {metric} gauge")
        for label, value in groups[metric]:
            lines.append(f"{metric}{{{label}}} {value!r}" if label else f"{metric} {value!r}")
    return "\n".join(lines) + "\n"


def render_multijob_dashboard(result) -> str:
    """Render a co-tenant :class:`~repro.multijob.MultiJobResult` as one
    self-contained HTML page: per-job tiles, an interference matrix, and
    (when the runner sampled) per-tenant fabric-occupancy charts."""
    title = f"{len(result.jobs)} co-tenant jobs"
    sampler = getattr(result, "sampler", None)
    t_max = float(result.wall_time)

    # -- per-job table -------------------------------------------------------
    rows = []
    for name, run in result.jobs.items():
        res = run.result
        rows.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td>{html.escape(res.sync_name)}</td>"
            f"<td>{run.queue_wait:.2f}</td><td>{run.wall_time:.2f}</td>"
            f"<td>{_fmt(res.throughput)}</td>"
            f"<td>{res.mean_bst * 1e3:.0f}</td>"
            f"<td>{_fmt(run.job_bytes)}B</td>"
            f"<td>{run.contended_share:.1%}</td>"
            f"<td>{html.escape(','.join(map(str, run.placement.hosts)))}</td></tr>"
        )
    sections = [
        "<section><h2>Jobs</h2>"
        '<table class="health"><thead><tr><th>job</th><th>sync</th>'
        "<th>queued (s)</th><th>wall (s)</th><th>samples/s</th>"
        "<th>BST (ms)</th><th>moved</th><th>contended</th><th>hosts</th>"
        "</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></section>"
    ]

    # -- interference matrix -------------------------------------------------
    matrix = result.interference_matrix()
    names = list(matrix)
    if len(names) > 1:
        head_cells = "".join(f"<th>{html.escape(n)}</th>" for n in names)
        body = []
        for a in names:
            cells = "".join(
                f"<td>{'&mdash;' if a == b else f'{matrix[a][b]:.2f}'}</td>"
                for b in names
            )
            body.append(f"<tr><td>{html.escape(a)}</td>{cells}</tr>")
        sections.append(
            "<section><h2>Interference (seconds of fabric overlap)</h2>"
            f'<table class="health"><thead><tr><th></th>{head_cells}</tr>'
            f"</thead><tbody>{''.join(body)}</tbody></table></section>"
        )

    # -- per-tenant occupancy charts ----------------------------------------
    if sampler is not None:
        charts = []
        for suffix, caption in (
            ("active_flows", "active flows per tenant"),
            ("inflight_bytes", "in-flight bytes per tenant"),
        ):
            chart = _Chart(f"mj-{suffix}", caption, t_max, [])
            for slot, name in enumerate(result.jobs):
                s = sampler.series.get(f"multijob.{name}.{suffix}")
                if s is not None and len(s):
                    chart.add(name, slot, s.times, s.values)
            if chart.series:
                charts.append(chart.render())
        if charts:
            sections.append(
                "<section><h2>Fabric occupancy</h2>"
                f'<div class="grid">{"".join(charts)}</div></section>'
            )

    head = (
        f"<h1>{html.escape(title)}</h1>"
        f'<p class="sub">{html.escape(result.placement)} placement &middot; '
        f"{html.escape(result.admission)} admission &middot; "
        f"{result.n_hosts} hosts &times; {result.slots_per_host} slots</p>"
        '<div class="tiles">'
        '<div class="tile hero"><div class="label">makespan (virtual s)</div>'
        f'<div class="value">{result.wall_time:.2f}</div></div>'
        '<div class="tile"><div class="label">jobs</div>'
        f'<div class="value">{len(result.jobs)}</div></div>'
        "</div>"
    )
    return (
        "<!doctype html><html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        '<meta name="viewport" content="width=device-width,initial-scale=1">'
        + _style()
        + "</head><body>"
        + head
        + "".join(sections)
        + _SCRIPT
        + "</body></html>"
    )


__all__ = [
    "export_csv",
    "export_prometheus",
    "fault_windows_from_schedule",
    "fault_windows_from_tracer",
    "render_dashboard",
    "render_multijob_dashboard",
]
