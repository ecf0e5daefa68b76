//! The `slsb trace` explorer: replays a JSONL trace into text renderings
//! — an event summary, a per-request waterfall, a per-instance timeline,
//! and phase-attribution tables mirroring the paper's cold-start
//! breakdown figure. Everything here is a pure function of the event
//! list, so renderings are as deterministic as the trace itself.

use crate::event::{Component, EventKind, SpanOutcome, TraceEvent};
use crate::metrics::LogLinearHistogram;
use crate::wire;
use slsb_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parses a JSON-Lines trace (one event per non-empty line; see
/// [`wire::parse_event`] for what a line may hold).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    // One slot per line, so a large trace is allocated once.
    let lines = text.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut events = Vec::with_capacity(lines);
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev = wire::parse_event(line.as_bytes())
            .map_err(|e| format!("line {}: invalid trace event: {e}", i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// [`parse_jsonl`] with the error reporting a CLI wants: an empty file is
/// an error (not an empty trace), and a parse failure on an unterminated
/// final line is diagnosed as truncation — the shape a killed or
/// still-running writer leaves behind — rather than generic bad JSON.
pub fn parse_jsonl_strict(text: &str) -> Result<Vec<TraceEvent>, String> {
    if text.trim().is_empty() {
        return Err("trace file is empty (no events recorded)".to_string());
    }
    parse_jsonl(text).map_err(|e| {
        let lines = text.lines().count();
        let failed_last = e.starts_with(&format!("line {lines}:"));
        if failed_last && !text.ends_with('\n') {
            format!("trace file is truncated (last line is incomplete): {e}")
        } else {
            e
        }
    })
}

/// The `RunClosed` bookkeeping event, if the trace carries one.
pub fn run_closed(events: &[TraceEvent]) -> Option<(u64, u64)> {
    events.iter().rev().find_map(|e| match e.kind {
        EventKind::RunClosed {
            engine_events,
            requests,
        } => Some((engine_events, requests)),
        _ => None,
    })
}

/// Per-kind event counts, one aligned line per kind in sorted order.
pub fn summary(events: &[TraceEvent]) -> String {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in events {
        *counts.entry(ev.kind.name()).or_insert(0) += 1;
    }
    let mut out = String::new();
    for (name, n) in counts {
        let _ = writeln!(out, "  {name:<18} {n:>8}");
    }
    out
}

/// A decoded `RequestSpan`, in trace order.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Logical request index.
    pub request: u64,
    /// Issuing client.
    pub client: u32,
    /// Invocation the request rode in.
    pub invocation: u64,
    /// Client-side arrival time.
    pub arrival: SimTime,
    /// Phase durations, in pipeline order.
    pub batch: SimDuration,
    /// Request network transfer.
    pub net_in: SimDuration,
    /// Platform queueing delay.
    pub queued: SimDuration,
    /// Handler execution.
    pub exec: SimDuration,
    /// Response network transfer.
    pub net_out: SimDuration,
    /// Whether the invocation paid a cold start.
    pub cold: bool,
    /// Terminal outcome.
    pub outcome: SpanOutcome,
}

impl Span {
    /// Sum of all phases — equals end-to-end latency for successes.
    pub fn total(&self) -> SimDuration {
        self.batch + self.net_in + self.queued + self.exec + self.net_out
    }
}

/// Extracts the request spans from a trace, in emission order.
pub fn spans(events: &[TraceEvent]) -> Vec<Span> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestSpan {
                request,
                client,
                invocation,
                arrival,
                batch,
                net_in,
                queued,
                exec,
                net_out,
                cold,
                outcome,
            } => Some(Span {
                request,
                client,
                invocation,
                arrival,
                batch,
                net_in,
                queued,
                exec,
                net_out,
                cold,
                outcome,
            }),
            _ => None,
        })
        .collect()
}

const PHASES: [&str; 5] = ["batch", "net_in", "queued", "exec", "net_out"];
const PHASE_GLYPHS: [char; 5] = ['b', '>', 'q', '#', '<'];

fn phase_values(s: &Span) -> [SimDuration; 5] {
    [s.batch, s.net_in, s.queued, s.exec, s.net_out]
}

/// Phase-attribution table over successful request spans: where
/// end-to-end latency goes, phase by phase, with streamed quantiles.
pub fn phase_attribution(events: &[TraceEvent]) -> String {
    let ok: Vec<Span> = spans(events)
        .into_iter()
        .filter(|s| s.outcome.is_success())
        .collect();
    let mut out = String::new();
    if ok.is_empty() {
        out.push_str("  (no successful request spans)\n");
        return out;
    }
    let mut hists: Vec<LogLinearHistogram> = (0..PHASES.len())
        .map(|_| LogLinearHistogram::default())
        .collect();
    let mut sums = [0u64; 5];
    let mut grand = 0u64;
    for s in &ok {
        for (i, d) in phase_values(s).into_iter().enumerate() {
            hists[i].record(d.as_secs_f64());
            sums[i] += d.as_micros();
            grand += d.as_micros();
        }
    }
    let _ = writeln!(
        out,
        "  {:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "phase", "count", "mean s", "p50 s", "p95 s", "p99 s", "share"
    );
    for (i, name) in PHASES.iter().enumerate() {
        let h = &hists[i];
        let share = if grand == 0 {
            0.0
        } else {
            100.0 * sums[i] as f64 / grand as f64
        };
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>6.1}%",
            name,
            h.count(),
            h.mean().unwrap_or(0.0),
            h.quantile(50.0).unwrap_or(0.0),
            h.quantile(95.0).unwrap_or(0.0),
            h.quantile(99.0).unwrap_or(0.0),
            share,
        );
    }
    out
}

/// Cold-start sub-stage table from `InstanceReady` events, mirroring the
/// paper's boot → import → download → load breakdown.
pub fn cold_start_breakdown(events: &[TraceEvent]) -> String {
    let stages = ["boot", "import", "download", "load"];
    let mut hists: Vec<LogLinearHistogram> = stages
        .iter()
        .map(|_| LogLinearHistogram::default())
        .collect();
    let mut sums = [0u64; 4];
    let mut total = 0u64;
    let mut instances = 0u64;
    for ev in events {
        if let EventKind::InstanceReady {
            boot,
            import,
            download,
            load,
            ..
        } = ev.kind
        {
            instances += 1;
            for (i, d) in [boot, import, download, load].into_iter().enumerate() {
                hists[i].record(d.as_secs_f64());
                sums[i] += d.as_micros();
                total += d.as_micros();
            }
        }
    }
    let mut out = String::new();
    if instances == 0 {
        out.push_str("  (no cold-started instances)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<9} {:>8} {:>10} {:>10} {:>10} {:>7}",
        "stage", "count", "mean s", "p50 s", "p99 s", "share"
    );
    for (i, name) in stages.iter().enumerate() {
        let h = &hists[i];
        let _ = writeln!(
            out,
            "  {:<9} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>6.1}%",
            name,
            h.count(),
            h.mean().unwrap_or(0.0),
            h.quantile(50.0).unwrap_or(0.0),
            h.quantile(99.0).unwrap_or(0.0),
            100.0 * sums[i] as f64 / total.max(1) as f64,
        );
    }
    out
}

/// Waterfall of the `limit` slowest request spans: one bar per request,
/// phases drawn left to right (`b` batch wait, `>` request network, `q`
/// platform queue, `#` execution, `<` response network), widths
/// proportional to the phase's share of that request's latency.
pub fn waterfall(events: &[TraceEvent], limit: usize) -> String {
    const WIDTH: usize = 40;
    let mut all = spans(events);
    // Slowest first; request index breaks ties so output is stable.
    all.sort_by(|a, b| b.total().cmp(&a.total()).then(a.request.cmp(&b.request)));
    all.truncate(limit);
    let mut out = String::new();
    if all.is_empty() {
        out.push_str("  (no request spans)\n");
        return out;
    }
    let max = all
        .iter()
        .map(|s| s.total().as_micros())
        .max()
        .unwrap_or(1)
        .max(1);
    for s in &all {
        let total = s.total().as_micros();
        let bar_len = ((total as f64 / max as f64) * WIDTH as f64).round() as usize;
        let mut bar = String::new();
        if total > 0 {
            let mut filled = 0usize;
            let mut cum = 0u64;
            for (i, d) in phase_values(s).into_iter().enumerate() {
                cum += d.as_micros();
                let upto = ((cum as f64 / total as f64) * bar_len as f64).round() as usize;
                for _ in filled..upto {
                    bar.push(PHASE_GLYPHS[i]);
                }
                filled = upto.max(filled);
            }
        }
        let _ = writeln!(
            out,
            "  #{:<6} {:>9} {}{:>9.3}s |{bar:<WIDTH$}|",
            s.request,
            s.outcome.to_string(),
            if s.cold { "cold " } else { "warm " },
            s.total().as_secs_f64(),
        );
    }
    let _ = writeln!(
        out,
        "  legend: b batch-wait, > request-net, q queue, # exec, < response-net"
    );
    out
}

/// Fault-attribution table: injected faults counted by kind and by the
/// component they struck (`client` for client-path faults), with each
/// kind's share of the total. Sorted by kind name, then component, so the
/// rendering is deterministic.
pub fn fault_attribution(events: &[TraceEvent]) -> String {
    // Interned labels keep this pass allocation-free per event.
    let mut counts: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    let mut total = 0u64;
    for ev in events {
        if let EventKind::Fault { component, kind } = ev.kind {
            let who = component.map_or("client", |c| c.label());
            *counts.entry((kind.label(), who)).or_insert(0) += 1;
            total += 1;
        }
    }
    let mut out = String::new();
    if total == 0 {
        out.push_str("  (no injected faults)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<14} {:<12} {:>8} {:>7}",
        "fault", "component", "count", "share"
    );
    for ((kind, who), n) in counts {
        let _ = writeln!(
            out,
            "  {:<14} {:<12} {:>8} {:>6.1}%",
            kind,
            who,
            n,
            100.0 * n as f64 / total as f64,
        );
    }
    let _ = writeln!(out, "  {:<14} {:<12} {total:>8}", "total", "");
    out
}

#[derive(Debug, Default, Clone, Copy)]
struct InstanceRow {
    spawned: Option<SimTime>,
    cause: Option<&'static str>,
    ready: Option<SimTime>,
    cold_total: SimDuration,
    execs: u64,
    crashed: bool,
    reclaimed: Option<SimTime>,
}

/// Per-instance lifecycle timeline: spawn → ready (cold-start total) →
/// executions → reclaim, one line per instance, at most `limit` lines
/// (earliest-spawned instances first).
pub fn instance_timeline(events: &[TraceEvent], limit: usize) -> String {
    let mut rows: BTreeMap<(Component, u64), InstanceRow> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::InstanceSpawn {
                component,
                instance,
                cause,
            } => {
                let row = rows.entry((component, instance)).or_default();
                row.spawned = Some(ev.at);
                row.cause = Some(match cause {
                    crate::event::SpawnCause::Demand => "demand",
                    crate::event::SpawnCause::Overprovision => "overprov",
                    crate::event::SpawnCause::Provisioned => "provisioned",
                });
            }
            EventKind::InstanceReady {
                component,
                instance,
                boot,
                import,
                download,
                load,
            } => {
                let row = rows.entry((component, instance)).or_default();
                row.ready = Some(ev.at);
                row.cold_total = boot + import + download + load;
            }
            EventKind::ExecStart {
                component,
                instance,
                ..
            } => rows.entry((component, instance)).or_default().execs += 1,
            EventKind::InstanceCrash {
                component,
                instance,
                ..
            } => rows.entry((component, instance)).or_default().crashed = true,
            EventKind::InstanceReclaim {
                component,
                instance,
                ..
            } => {
                rows.entry((component, instance)).or_default().reclaimed = Some(ev.at);
            }
            _ => {}
        }
    }
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("  (no instance events)\n");
        return out;
    }
    let total = rows.len();
    let mut ordered: Vec<((Component, u64), InstanceRow)> = rows.into_iter().collect();
    ordered.sort_by_key(|(key, row)| (row.spawned.unwrap_or(SimTime::ZERO), *key));
    for ((component, id), row) in ordered.iter().take(limit) {
        let spawned = row
            .spawned
            .map_or("?".to_string(), |t| format!("{:.3}", t.as_secs_f64()));
        let end = if row.crashed {
            "crashed".to_string()
        } else {
            match row.reclaimed {
                Some(t) => format!("reclaim@{:.3}", t.as_secs_f64()),
                None => "alive".to_string(),
            }
        };
        let _ = writeln!(
            out,
            "  {:<10} #{:<5} spawn@{spawned:<10} {:<11} cold={:<8.3} execs={:<6} {end}",
            component.to_string(),
            id,
            row.cause.unwrap_or("?"),
            row.cold_total.as_secs_f64(),
            row.execs,
        );
    }
    if total > limit {
        let _ = writeln!(out, "  … {} more instances", total - limit);
    }
    out
}

#[derive(Debug, Default)]
struct AppRow {
    requests: u64,
    ok: u64,
    cold: u64,
    latencies_us: Vec<u64>,
    cost_micro_dollars: Option<i64>,
}

/// Per-tenant breakdown for fleet traces: requests, cold-start ratio, p99
/// latency, and serving cost for the top-`limit` apps by request count.
/// Fleet runs label each span's `client` with the global app index and emit
/// one `AppClosed` per tenant carrying the cost; single-app traces degrade
/// to one row per client with cost shown as `-`.
pub fn app_breakdown(events: &[TraceEvent], limit: usize) -> String {
    let mut rows: BTreeMap<u32, AppRow> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::RequestSpan {
                client,
                cold,
                outcome,
                batch,
                net_in,
                queued,
                exec,
                net_out,
                ..
            } => {
                let row = rows.entry(client).or_default();
                row.requests += 1;
                if outcome.is_success() {
                    row.ok += 1;
                    row.latencies_us
                        .push((batch + net_in + queued + exec + net_out).as_micros());
                }
                if cold {
                    row.cold += 1;
                }
            }
            EventKind::AppClosed {
                app,
                requests,
                cost_micro_dollars,
            } => {
                let row = rows.entry(app).or_default();
                row.cost_micro_dollars = Some(cost_micro_dollars);
                // Spans are only emitted for resolved requests; the closing
                // record is authoritative for the submitted count.
                row.requests = row.requests.max(requests);
            }
            _ => {}
        }
    }
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("  (no per-app events)\n");
        return out;
    }
    let total = rows.len();
    let mut ordered: Vec<(u32, AppRow)> = rows.into_iter().collect();
    // Busiest first; app index breaks ties so the rendering is stable.
    ordered.sort_by(|a, b| b.1.requests.cmp(&a.1.requests).then(a.0.cmp(&b.0)));
    let _ = writeln!(
        out,
        "  {:<8} {:>10} {:>8} {:>7} {:>10} {:>12}",
        "app", "requests", "ok", "cold", "p99", "cost"
    );
    for (app, row) in ordered.iter_mut().take(limit) {
        row.latencies_us.sort_unstable();
        let p99 = if row.latencies_us.is_empty() {
            "-".to_string()
        } else {
            let rank = (row.latencies_us.len() as f64 * 0.99).ceil() as usize;
            let us = row.latencies_us[rank.saturating_sub(1).min(row.latencies_us.len() - 1)];
            format!("{:.3}s", us as f64 / 1e6)
        };
        let cost = row
            .cost_micro_dollars
            .map_or("-".to_string(), |c| format!("${:.4}", c as f64 / 1e6));
        let cold_pct = if row.requests == 0 {
            0.0
        } else {
            100.0 * row.cold as f64 / row.requests as f64
        };
        let _ = writeln!(
            out,
            "  {:<8} {:>10} {:>8} {:>6.1}% {:>10} {:>12}",
            app, row.requests, row.ok, cold_pct, p99, cost,
        );
    }
    if total > limit {
        let _ = writeln!(out, "  … {} more apps", total - limit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpawnCause;

    fn span_event(request: u64, exec_ms: u64, outcome: SpanOutcome) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO + SimDuration::from_millis(exec_ms),
            kind: EventKind::RequestSpan {
                request,
                client: 0,
                invocation: request,
                arrival: SimTime::ZERO,
                batch: SimDuration::from_millis(1),
                net_in: SimDuration::from_millis(2),
                queued: SimDuration::from_millis(3),
                exec: SimDuration::from_millis(exec_ms),
                net_out: SimDuration::from_millis(4),
                cold: false,
                outcome,
            },
        }
    }

    fn lifecycle_events() -> Vec<TraceEvent> {
        let c = Component::Serverless;
        vec![
            TraceEvent {
                at: SimTime::ZERO,
                kind: EventKind::InstanceSpawn {
                    component: c,
                    instance: 0,
                    cause: SpawnCause::Demand,
                },
            },
            TraceEvent {
                at: SimTime::ZERO + SimDuration::from_secs(3),
                kind: EventKind::InstanceReady {
                    component: c,
                    instance: 0,
                    boot: SimDuration::from_millis(400),
                    import: SimDuration::from_secs(2),
                    download: SimDuration::from_millis(500),
                    load: SimDuration::from_millis(100),
                },
            },
            TraceEvent {
                at: SimTime::ZERO + SimDuration::from_secs(3),
                kind: EventKind::ExecStart {
                    component: c,
                    request: 0,
                    instance: 0,
                    cold: true,
                    done_at: SimTime::ZERO + SimDuration::from_secs(4),
                },
            },
            TraceEvent {
                at: SimTime::ZERO + SimDuration::from_secs(600),
                kind: EventKind::InstanceReclaim {
                    component: c,
                    instance: 0,
                },
            },
        ]
    }

    fn to_line(ev: &TraceEvent) -> String {
        let mut out = Vec::new();
        wire::write_event(ev, &mut out);
        String::from_utf8(out).unwrap()
    }

    fn to_jsonl(events: &[TraceEvent]) -> String {
        events.iter().map(|e| to_line(e) + "\n").collect()
    }

    #[test]
    fn jsonl_roundtrip() {
        let events = lifecycle_events();
        let text = to_jsonl(&events);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        assert!(parse_jsonl("{not json}").is_err());
        assert!(parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn strict_parse_rejects_empty_and_diagnoses_truncation() {
        // 0-byte file: a clear error, not an empty trace.
        let err = parse_jsonl_strict("").unwrap_err();
        assert!(err.contains("empty"), "{err}");
        let err = parse_jsonl_strict("\n\n").unwrap_err();
        assert!(err.contains("empty"), "{err}");

        // A writer killed mid-line leaves a complete prefix plus an
        // unterminated fragment: diagnosed as truncation.
        let events = lifecycle_events();
        let mut text = to_jsonl(&events);
        let fragment = to_line(&events[0]);
        text.push_str(&fragment[..fragment.len() / 2]);
        let err = parse_jsonl_strict(&text).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // A bad line in the middle is NOT truncation — plain parse error.
        let mid = format!("{}\n{{not json}}\n{}\n", fragment, fragment);
        let err = parse_jsonl_strict(&mid).unwrap_err();
        assert!(!err.contains("truncated"), "{err}");
        assert!(err.contains("line 2"), "{err}");

        // A complete trace still parses.
        assert_eq!(parse_jsonl_strict(&to_jsonl(&events)).unwrap(), events);
    }

    #[test]
    fn summary_counts_kinds() {
        let s = summary(&lifecycle_events());
        assert!(s.contains("instance_spawn"), "{s}");
        assert!(s.contains("exec_start"), "{s}");
    }

    #[test]
    fn waterfall_orders_slowest_first() {
        let events = vec![
            span_event(0, 10, SpanOutcome::Success),
            span_event(1, 500, SpanOutcome::Success),
            span_event(2, 100, SpanOutcome::Success),
        ];
        let w = waterfall(&events, 2);
        let pos1 = w.find("#1").unwrap();
        let pos2 = w.find("#2").unwrap();
        assert!(pos1 < pos2, "{w}");
        assert!(!w.contains("#0 "), "{w}");
        assert!(w.contains('#'), "{w}");
    }

    #[test]
    fn attribution_reports_exec_dominant_share() {
        let events = vec![
            span_event(0, 990, SpanOutcome::Success),
            span_event(1, 990, SpanOutcome::Success),
            // Failures are excluded from attribution.
            span_event(2, 0, SpanOutcome::QueueFull),
        ];
        let t = phase_attribution(&events);
        assert!(t.contains("exec"), "{t}");
        assert!(t.contains("99.0%"), "{t}");
    }

    #[test]
    fn cold_breakdown_import_share() {
        let t = cold_start_breakdown(&lifecycle_events());
        // import (2s of 3s total) dominates.
        assert!(t.contains("import"), "{t}");
        assert!(t.contains("66.7%"), "{t}");
        let none = cold_start_breakdown(&[]);
        assert!(none.contains("no cold-started instances"));
    }

    #[test]
    fn timeline_shows_lifecycle() {
        let t = instance_timeline(&lifecycle_events(), 10);
        assert!(t.contains("serverless"), "{t}");
        assert!(t.contains("demand"), "{t}");
        assert!(t.contains("reclaim@600.000"), "{t}");
        assert!(t.contains("execs=1"), "{t}");
    }

    #[test]
    fn fault_attribution_counts_by_kind_and_component() {
        use crate::event::FaultKind;
        let fault = |kind, component| TraceEvent {
            at: SimTime::ZERO,
            kind: EventKind::Fault { component, kind },
        };
        let events = vec![
            fault(FaultKind::Throttled, Some(Component::Serverless)),
            fault(FaultKind::Throttled, Some(Component::Serverless)),
            fault(FaultKind::PacketLoss, None),
            fault(FaultKind::ExecCrash, Some(Component::Vm)),
        ];
        let t = fault_attribution(&events);
        assert!(t.contains("throttled"), "{t}");
        assert!(t.contains("serverless"), "{t}");
        assert!(t.contains("client"), "{t}");
        assert!(t.contains("50.0%"), "{t}");
        assert!(t.contains("total"), "{t}");
        let none = fault_attribution(&lifecycle_events());
        assert!(none.contains("no injected faults"), "{none}");
    }

    #[test]
    fn span_total_sums_phases() {
        let events = vec![span_event(5, 10, SpanOutcome::Success)];
        let s = spans(&events);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].total(), SimDuration::from_millis(1 + 2 + 3 + 10 + 4));
        assert!(run_closed(&events).is_none());
    }

    #[test]
    fn app_breakdown_ranks_tenants_and_joins_cost() {
        let span_for = |app: u32, request: u64, cold: bool| TraceEvent {
            at: SimTime::ZERO,
            kind: EventKind::RequestSpan {
                request,
                client: app,
                invocation: request,
                arrival: SimTime::ZERO,
                batch: SimDuration::ZERO,
                net_in: SimDuration::from_millis(2),
                queued: SimDuration::ZERO,
                exec: SimDuration::from_millis(30),
                net_out: SimDuration::from_millis(2),
                cold,
                outcome: SpanOutcome::Success,
            },
        };
        let mut events = vec![
            span_for(3, 0, true),
            span_for(3, 1, false),
            span_for(3, 2, false),
            span_for(9, 3, true),
        ];
        events.push(TraceEvent {
            at: SimTime::ZERO,
            kind: EventKind::AppClosed {
                app: 3,
                requests: 3,
                cost_micro_dollars: 1_234_500,
            },
        });
        let t = app_breakdown(&events, 10);
        // Busiest app first, with its AppClosed cost joined in.
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[1].trim_start().starts_with('3'), "{t}");
        assert!(lines[1].contains("$1.2345"), "{t}");
        // App 9 has no AppClosed record: cost renders as `-`.
        assert!(lines[2].trim_start().starts_with('9'), "{t}");
        assert!(lines[2].trim_end().ends_with('-'), "{t}");
        assert!(t.contains("p99"), "{t}");

        // Truncation note for limits below the app count.
        let t = app_breakdown(&events, 1);
        assert!(t.contains("1 more apps"), "{t}");

        let none = app_breakdown(&[], 5);
        assert!(none.contains("no per-app events"), "{none}");
    }
}
