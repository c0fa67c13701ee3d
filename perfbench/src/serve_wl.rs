//! `serve_distinct` and `serve_repeat`: a closed loop of `POST
//! /v1/report` uploads from one client over one keep-alive connection
//! to an in-process server with one worker.
//!
//! The uploads are activities generated over the 10 Table II cities on
//! the terrain the served models were trained on; a seeded share is
//! corrupted with `faultsim` so the repair and 422-quarantine paths run
//! too. `serve_distinct` makes every upload distinct by rewriting the
//! last digit of a few `<ele>` values of a pooled activity, so every
//! BoW lookup misses the process-wide `featcache` memo and the memo
//! grows by one row per task per upload. `serve_repeat` replays the
//! pool itself, so after the first pass every lookup hits. Both send
//! the same uploads in the same order and open with one untimed pass
//! over the pool; they differ only in whether the memo can answer.

use crate::alloc::{mib, LEDGER};
use crate::trace::Tracer;
use crate::{cpu, stats, Args, Outcome};
use datasets::city_level::TABLE_II;
use elev_core::featcache;
use elev_core::ingest::StreamingIngest;
use elev_core::report::{IngestSummary, LeakageReport, ModelVote, TaskReport};
use faultsim::{corrupt_track, FaultPlan, Payload};
use routegen::AthleteSimulator;
use serve::{
    BundleConfig, ClientConfig, HttpClient, InferenceArena, ModelBundle, ServeConfig, Server,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use terrain::SyntheticTerrain;

/// Which upload stream the client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every upload's elevation profile is new.
    Distinct,
    /// The pool's uploads, replayed in turn.
    Repeat,
}

/// Seed of the world the served models know: the terrain and the
/// training corpora. Only the traffic depends on `--seed`.
const WORLD_SEED: u64 = 42;
/// Pooled uploads per city, one activity each from as many athletes
/// (800 in all).
const POOL_PER_CITY: usize = 80;
/// Share of pooled uploads `faultsim` corrupts.
const CORRUPT_RATE: f64 = 0.2;
/// `<ele>` digits rewritten per distinct upload (10^4 variants per
/// pooled activity).
const VARIANT_DIGITS: usize = 4;
/// Requests per round; a run serves whole rounds.
const ROUND: u64 = 500;
/// Rounds over which the heap figures are taken.
const HEAP_WINDOW_ROUNDS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// One request in this many keeps its body for the in-process
/// comparison.
const SAMPLE_EVERY: u64 = 40;
/// Least share of accepted pool uploads, served once each in the
/// warm-up pass, whose TM-3 prediction names the generating city
/// (chance is 1/10; about 0.3 is measured).
const MIN_TM3_HIT_RATE: f64 = 0.2;

/// One pooled upload.
struct Upload {
    bytes: Vec<u8>,
    /// Index into `TABLE_II` of the generating city.
    city: usize,
    /// No fault was injected.
    clean: bool,
    /// Offsets of the `<ele>` digits a variant rewrites.
    digits: Vec<usize>,
}

/// The seeded pool: [`POOL_PER_CITY`] activities per Table II city,
/// a [`CORRUPT_RATE`] share corrupted, in a seeded order.
fn upload_pool(seed: u64) -> Vec<Upload> {
    let terrain = SyntheticTerrain::new(WORLD_SEED);
    let plan = FaultPlan::uniform(CORRUPT_RATE, exec::mix_seed(seed, 0xFA17));
    let mut pool = Vec::with_capacity(TABLE_II.len() * POOL_PER_CITY);
    for (city, &(id, _)) in TABLE_II.iter().enumerate() {
        for athlete in 0..POOL_PER_CITY {
            let athlete_seed = exec::mix_seed(exec::mix_seed(seed, city as u64), athlete as u64);
            let activity = AthleteSimulator::new(terrain.clone(), athlete_seed).generate_one(id);
            let corrupted = corrupt_track(&plan, pool.len() as u64, &activity.gpx);
            let bytes = match corrupted.payload {
                Payload::Parsed(gpx) => gpx.to_xml().into_bytes(),
                Payload::Raw(bytes) => bytes,
            };
            let digits = ele_digits(&bytes);
            pool.push(Upload {
                bytes,
                city,
                clean: corrupted.injected.is_empty(),
                digits,
            });
        }
    }
    for i in (1..pool.len()).rev() {
        let j = (exec::mix_seed(seed ^ 0x5401, i as u64) % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    pool
}

/// Offsets of the last digit of the first [`VARIANT_DIGITS`] `<ele>`
/// values.
fn ele_digits(bytes: &[u8]) -> Vec<usize> {
    const CLOSE: &[u8] = b"</ele>";
    let mut out = Vec::with_capacity(VARIANT_DIGITS);
    let mut i = 1;
    while out.len() < VARIANT_DIGITS && i + CLOSE.len() <= bytes.len() {
        if &bytes[i..i + CLOSE.len()] == CLOSE && bytes[i - 1].is_ascii_digit() {
            out.push(i - 1);
        }
        i += 1;
    }
    out
}

/// Writes variant `v` of `upload` into `out`: digit `k` of `v` is added
/// (mod 10) to the `k`-th rewritten `<ele>` digit, so variants of one
/// activity differ in their elevations and nothing else.
fn write_variant(upload: &Upload, v: u64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&upload.bytes);
    let mut rest = v;
    for &pos in &upload.digits {
        let d = (rest % 10) as u8;
        rest /= 10;
        out[pos] = b'0' + (out[pos] - b'0' + d) % 10;
    }
}

/// A JSON token of a served report, as far as the checks need.
#[derive(Debug, PartialEq)]
enum Token {
    Str(String),
    Colon,
    Other,
}

fn tokens(body: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return Err("unterminated string".to_owned()),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            Some(e @ ('"' | '\\' | '/')) => s.push(e),
                            other => return Err(format!("unsupported escape {other:?}")),
                        },
                        Some(ch) => s.push(ch),
                    }
                }
                out.push(Token::Str(s));
            }
            ':' => out.push(Token::Colon),
            c if c.is_whitespace() => {}
            _ => out.push(Token::Other),
        }
    }
    Ok(out)
}

/// The `"key": "string"` pairs of a report, in order.
fn string_pairs(body: &str) -> Result<Vec<(String, String)>, String> {
    let toks = tokens(body)?;
    Ok(toks
        .windows(3)
        .filter_map(|w| match w {
            [Token::Str(k), Token::Colon, Token::Str(v)] => Some((k.clone(), v.clone())),
            _ => None,
        })
        .collect())
}

/// Each served task's name and label set, in report order.
type LabelSets = Vec<(String, Vec<String>)>;

/// Checks one served `(status, body)` for an upload and returns the
/// TM-3 prediction of an accepted upload.
///
/// Holds the served report to: a 200 or 422 status that agrees with
/// the body's `status`; 200 for an upload with no injected fault; on
/// 200, one entry per served task in order, each with a prediction and
/// `svm`/`rfc`/`mlp` votes drawn from the task's label set and a
/// prediction that is one of the votes; on 422, no task entries and a
/// quarantine reason.
fn check_reply(
    status: u16,
    body: &str,
    clean: bool,
    labels: &LabelSets,
) -> Result<Option<String>, String> {
    let pairs = string_pairs(body)?;
    let field = |key: &str| {
        pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let tasks: Vec<usize> = pairs
        .iter()
        .enumerate()
        .filter(|(_, (k, _))| k == "task")
        .map(|(i, _)| i)
        .collect();
    match status {
        200 => {
            if field("status") != Some("ok") {
                return Err(format!("200 with body status {:?}", field("status")));
            }
            let names: Vec<&str> = tasks.iter().map(|&i| pairs[i].1.as_str()).collect();
            let expected: Vec<&str> = labels.iter().map(|(t, _)| t.as_str()).collect();
            if names != expected {
                return Err(format!("tasks {names:?}, expected {expected:?}"));
            }
            let mut tm3 = None;
            for (n, &start) in tasks.iter().enumerate() {
                let end = tasks.get(n + 1).copied().unwrap_or(pairs.len());
                let (task, set) = &labels[n];
                let entry = &pairs[start + 1..end];
                let get = |key: &str| {
                    entry
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.as_str())
                };
                let mut votes = Vec::new();
                for key in ["prediction", "svm", "rfc", "mlp"] {
                    let label = get(key).ok_or_else(|| format!("{task}: no {key}"))?;
                    if !set.iter().any(|l| l == label) {
                        return Err(format!(
                            "{task}: {key} label {label:?} is not a {task} label"
                        ));
                    }
                    votes.push(label);
                }
                if !votes[1..].contains(&votes[0]) {
                    return Err(format!(
                        "{task}: prediction {:?} is none of the votes",
                        votes[0]
                    ));
                }
                if task == "tm3" {
                    tm3 = Some(votes[0].to_owned());
                }
            }
            Ok(tm3)
        }
        422 => {
            if clean {
                return Err("an upload with no injected fault was quarantined".to_owned());
            }
            if field("status") != Some("quarantined")
                || field("reason").is_none()
                || !tasks.is_empty()
            {
                return Err(format!("malformed 422 body {body:?}"));
            }
            Ok(None)
        }
        other => Err(format!("status {other}")),
    }
}

/// TM-3 must name the generating city of at least
/// [`MIN_TM3_HIT_RATE`] of `accepted` uploads.
fn check_tm3_rate(hits: u64, accepted: u64) -> Result<(), String> {
    let rate = hits as f64 / accepted.max(1) as f64;
    if accepted > 0 && rate >= MIN_TM3_HIT_RATE {
        Ok(())
    } else {
        Err(format!("TM-3 named the generating city for {hits} of {accepted} uploads (floor {MIN_TM3_HIT_RATE})"))
    }
}

/// The `completed` counter of a `/v1/health` body.
fn health_completed(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"completed\":")? + "\"completed\":".len()..];
    rest.trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Server settings: one worker, no hot reload, no debug routes.
fn serve_config() -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: 1,
        model_dir: None,
        reload_poll: Duration::from_millis(200),
        request_deadline: Duration::from_secs(5),
        header_deadline: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(30),
        queue_depth: 64,
        ip_slot_cap: 0,
        debug_routes: false,
    }
}

fn client_config() -> ClientConfig {
    ClientConfig::tight(Duration::from_secs(10))
}

/// Client-side counts of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Responses received, whatever their status.
    replies: u64,
    violations: Vec<String>,
    tm3_hits: u64,
    tm3_accepted: u64,
    /// `(request index, status, body)` of the sampled requests.
    samples: Vec<(u64, u16, String)>,
}

impl Tally {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }
}

/// The client: the request stream and the connection.
struct Client<'a> {
    addr: SocketAddr,
    conn: HttpClient,
    pool: &'a [Upload],
    traffic: Traffic,
    labels: &'a LabelSets,
    seed: u64,
    next: u64,
    buf: Vec<u8>,
}

impl<'a> Client<'a> {
    /// The upload and variant of request `i`: the pool in order, again
    /// and again; `serve_distinct` moves to the next variant on every
    /// pass, `serve_repeat` replays the first pass.
    fn upload_of(&self, i: u64) -> (&'a Upload, u64) {
        let n = self.pool.len() as u64;
        let upload = &self.pool[(i % n) as usize];
        match self.traffic {
            Traffic::Distinct => (upload, i / n),
            Traffic::Repeat => (upload, 0),
        }
    }

    fn sampled(&self, i: u64) -> bool {
        exec::mix_seed(self.seed ^ 0x5A3F, i).is_multiple_of(SAMPLE_EVERY)
    }

    /// Sends the next upload; returns its latency and reply when the
    /// server answered 200 or 422.
    fn send(&mut self, tally: &mut Tally) -> Result<Option<(f64, u16, String)>, String> {
        let i = self.next;
        self.next += 1;
        let (upload, v) = self.upload_of(i);
        if v >= 10u64.pow(VARIANT_DIGITS as u32) {
            return Err(format!(
                "request {i}: the pool has no distinct variant left"
            ));
        }
        write_variant(upload, v, &mut self.buf);
        tally.attempted += 1;
        let t = Instant::now();
        let reply = self.conn.post("/v1/report", &self.buf);
        let latency = t.elapsed().as_secs_f64();
        let resp = match reply {
            Ok(resp) => resp,
            Err(e) => {
                tally.failed += 1;
                eprintln!("request {i}: {e}; reconnecting");
                self.conn = HttpClient::connect_with(self.addr, &client_config())
                    .map_err(|e| format!("reconnect: {e}"))?;
                return Ok(None);
            }
        };
        tally.replies += 1;
        if resp.status != 200 && resp.status != 422 {
            tally.failed += 1;
            eprintln!("request {i}: status {}", resp.status);
            return Ok(None);
        }
        let body = resp.text();
        match check_reply(resp.status, &body, upload.clean, self.labels) {
            Err(e) => tally.violation(format!("request {i}: {e}")),
            Ok(Some(tm3)) if i < self.pool.len() as u64 => {
                tally.tm3_accepted += 1;
                if tm3 == TABLE_II[upload.city].0.name() {
                    tally.tm3_hits += 1;
                }
            }
            Ok(_) => {}
        }
        if self.sampled(i) {
            tally.samples.push((i, resp.status, body.clone()));
        }
        Ok(Some((latency, resp.status, body)))
    }
}

/// One round of the measured phase.
struct RoundStats {
    secs: f64,
    /// Answered requests per second.
    per_s: f64,
    /// The round's p99 latency.
    p99_ms: f64,
}

/// What one measured phase saw.
struct Phase {
    /// Client-observed seconds of every answered request.
    latencies: Vec<f64>,
    rounds: Vec<RoundStats>,
    server_cpu_ns: u64,
    /// Peak live heap over the first [`HEAP_WINDOW_ROUNDS`] rounds,
    /// less the phase's own bookkeeping and sampled bodies.
    window_peak: u64,
    /// Live heap added over those rounds, less the sampled bodies.
    window_growth: i64,
}

/// Serves whole rounds until `seconds` have passed and at least
/// [`HEAP_WINDOW_ROUNDS`] rounds ran. Heap figures cover the first
/// [`HEAP_WINDOW_ROUNDS`] rounds, a fixed amount of work, so they do
/// not grow with the machine's speed.
fn measure(client: &mut Client, tally: &mut Tally, seconds: f64) -> Result<Phase, String> {
    let main_tid = cpu::current_tid()?;
    let before_reserve = LEDGER.snapshot().live;
    let mut latencies = Vec::with_capacity((seconds * 20_000.0) as usize + ROUND as usize);
    let mut rounds = Vec::with_capacity(4096);
    tally
        .samples
        .reserve((seconds * 20_000.0) as usize / SAMPLE_EVERY as usize);
    let reserved = LEDGER.snapshot().live - before_reserve;
    let sample_bytes = |t: &Tally| {
        t.samples
            .iter()
            .map(|(_, _, b)| b.capacity() as i64)
            .sum::<i64>()
    };
    let samples0 = sample_bytes(tally);
    let cpu0 = cpu::threads_ns(Some(main_tid))?;
    LEDGER.reset_peak();
    let live0 = LEDGER.snapshot().live;
    let (mut window_peak, mut window_growth) = (0, 0);
    let t0 = Instant::now();
    loop {
        let first = latencies.len();
        let r0 = Instant::now();
        for _ in 0..ROUND {
            if let Some((latency, _, _)) = client.send(tally)? {
                latencies.push(latency);
            }
        }
        let round_s = r0.elapsed().as_secs_f64();
        let done = &latencies[first..];
        let p99_ms = if done.is_empty() {
            0.0
        } else {
            stats::percentile(done, 0.99) * 1e3
        };
        rounds.push(RoundStats {
            secs: round_s,
            per_s: done.len() as f64 / round_s,
            p99_ms,
        });
        if rounds.len() == HEAP_WINDOW_ROUNDS {
            let snap = LEDGER.snapshot();
            let sampled = (sample_bytes(tally) - samples0) as u64;
            window_peak = snap.peak.saturating_sub(reserved + sampled);
            window_growth = snap.live as i64 - live0 as i64 - sampled as i64;
        }
        if rounds.len() >= HEAP_WINDOW_ROUNDS && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let server_cpu_ns = cpu::threads_ns(Some(main_tid))? - cpu0;
    Ok(Phase {
        latencies,
        rounds,
        server_cpu_ns,
        window_peak,
        window_growth,
    })
}

/// The report of `bundle` for `raw`, built from the public stages of
/// `ModelBundle::report_json` with a span around each.
fn staged_report(
    t: &mut Tracer,
    op: u64,
    bundle: &ModelBundle,
    arena: &mut InferenceArena,
    ingest: &mut StreamingIngest,
    raw: &[u8],
) -> (u16, String) {
    let (disposition, profile) = t.span("core.ingest", op, |_| ingest.ingest_bytes(raw));
    let report = match profile {
        None => LeakageReport {
            ingest: IngestSummary::of(&disposition, 0),
            tasks: Vec::new(),
        },
        Some(signal) => {
            let mut tasks = Vec::with_capacity(bundle.tasks().len());
            for task in bundle.tasks() {
                let bow = t.span("core.featcache.bow", op, |_| task.bow(&signal));
                let votes = t.span("serve.bundle.classify", op, |_| {
                    task.classify_bow(&bow, arena)
                });
                tasks.push(t.span("serve.bundle.assemble", op, |_| {
                    let name = |idx: u32| {
                        task.labels
                            .get(idx as usize)
                            .cloned()
                            .unwrap_or_else(|| format!("class-{idx}"))
                    };
                    TaskReport::from_votes(
                        task.task.clone(),
                        vec![
                            ModelVote {
                                model: "svm",
                                label: name(votes.svm),
                            },
                            ModelVote {
                                model: "rfc",
                                label: name(votes.rfc),
                            },
                            ModelVote {
                                model: "mlp",
                                label: name(votes.mlp),
                            },
                        ],
                    )
                }));
            }
            LeakageReport {
                ingest: IngestSummary::of(&disposition, signal.len()),
                tasks,
            }
        }
    };
    let json = t.span("core.report.render", op, |_| report.to_json());
    (if report.status() == "ok" { 200 } else { 422 }, json)
}

/// Runs a serving workload.
///
/// # Errors
///
/// Set-up failures (bind, model records) and a broken connection that
/// cannot be re-opened.
pub fn run(traffic: Traffic, args: &Args) -> Result<Outcome, String> {
    let live0 = LEDGER.snapshot().live;
    let pool = upload_pool(args.seed);
    let mut bench_bytes = LEDGER.snapshot().live - live0;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        featcache::reset();
        let t = Instant::now();
        let trained = ModelBundle::train(WORLD_SEED, &BundleConfig::quick());
        let served = ModelBundle::from_records(trained.to_records())?;
        let started = Server::start(served, &serve_config()).map_err(|e| format!("bind: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        server = Some((started, trained));
    }
    let (server, trained) = server.expect("at least one set-up");

    // The records and the in-process reference for the sampled
    // comparison are the benchmark's: their bytes are not the server's.
    let live1 = LEDGER.snapshot().live;
    let records = trained.to_records();
    let reference = ModelBundle::from_records(records.clone())?;
    bench_bytes += LEDGER.snapshot().live.saturating_sub(live1);
    drop(trained);
    let labels: LabelSets = reference
        .tasks()
        .iter()
        .map(|t| (t.task.clone(), t.labels.clone()))
        .collect();

    let mut tally = Tally::default();
    let mut client = Client {
        addr: server.addr(),
        conn: HttpClient::connect_with(server.addr(), &client_config())
            .map_err(|e| format!("connect: {e}"))?,
        pool: &pool,
        traffic,
        labels: &labels,
        seed: args.seed,
        next: 0,
        buf: Vec::with_capacity(pool.iter().map(|u| u.bytes.len()).max().unwrap_or(0)),
    };
    bench_bytes += client.buf.capacity() as u64;

    // Warm-up: one pass over the pool, checked but not timed.
    for _ in 0..pool.len() {
        client.send(&mut tally)?;
    }
    let cache0 = featcache::stats();
    let phase = measure(&mut client, &mut tally, args.seconds)?;
    let cache1 = featcache::stats();

    let mut out = Outcome::default();
    let served = phase.latencies.len() as f64;
    if served == 0.0 {
        return Err("no request succeeded".to_owned());
    }
    let latency_ms: Vec<f64> = phase.latencies.iter().map(|s| s * 1e3).collect();
    let column = |f: fn(&RoundStats) -> f64| phase.rounds.iter().map(f).collect::<Vec<f64>>();
    out.metric("setup_s", stats::median(&setups));
    out.metric("ops_per_s", stats::median(&column(|r| r.per_s)));
    out.metric("latency_p50_ms", stats::percentile(&latency_ms, 0.50));
    out.metric("latency_p99_ms", stats::median(&column(|r| r.p99_ms)));
    out.metric("wall_s", stats::median(&column(|r| r.secs)));
    out.metric(
        "peak_heap_mb",
        mib(phase.window_peak.saturating_sub(bench_bytes)),
    );
    out.metric("cpu_ms_per_op", phase.server_cpu_ns as f64 / served / 1e6);

    let lookups = (cache1.bow_hits + cache1.bow_misses) - (cache0.bow_hits + cache0.bow_misses);
    out.metric(
        "core.featcache.bow_hit_ratio",
        (cache1.bow_hits - cache0.bow_hits) as f64 / lookups.max(1) as f64,
    );
    out.metric(
        "core.featcache.retained_mb",
        phase.window_growth.max(0) as f64 / (1024.0 * 1024.0),
    );

    if args.trace {
        trace_phase(
            &mut client,
            &mut tally,
            &records,
            args,
            stats::median(&latency_ms),
            &mut out,
        )?;
    }

    // The sampled bodies against the in-process report of the same bytes.
    let mut arena = InferenceArena::new();
    let mut buf = Vec::new();
    for (i, status, body) in std::mem::take(&mut tally.samples) {
        let (upload, v) = client.upload_of(i);
        write_variant(upload, v, &mut buf);
        if reference.report_json(&buf, &mut arena) != (status, body) {
            tally.violation(format!(
                "request {i}: served body differs from in-process report_json"
            ));
        }
    }
    // The server's ledger against the client's.
    match client.conn.get("/v1/health") {
        Ok(resp) => match health_completed(&resp.text()) {
            Some(done) if done == tally.replies => {}
            other => tally.violation(format!(
                "/v1/health completed {other:?}, client received {} replies",
                tally.replies
            )),
        },
        Err(e) => tally.violation(format!("/v1/health: {e}")),
    }
    if let Err(e) = check_tm3_rate(tally.tm3_hits, tally.tm3_accepted) {
        tally.violation(e);
    }
    eprintln!(
        "{} requests, {} replies, TM-3 named the city for {} of {} pool uploads, set-ups {setups:?}",
        tally.attempted, tally.replies, tally.tm3_hits, tally.tm3_accepted
    );
    drop(client);
    server.shutdown();

    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.violations = tally.violations;
    Ok(out)
}

/// The traced phase: the same closed loop for the same time, where
/// each upload is also reported in-process twice: once whole, timed
/// and allocation-counted, and once stage by stage under spans.
fn trace_phase(
    client: &mut Client,
    tally: &mut Tally,
    records: &[serve::ModelRecord],
    args: &Args,
    untraced_p50_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let whole = ModelBundle::from_records(records.to_vec())?;
    let staged = ModelBundle::from_records(records.to_vec())?;
    let (mut whole_arena, mut staged_arena) = (InferenceArena::new(), InferenceArena::new());
    whole.warm(&mut whole_arena);
    staged.warm(&mut staged_arena);
    let mut ingest = StreamingIngest::default();
    let mut tracer = Tracer::new();

    let mut served_s = Vec::new();
    let (mut report_s, mut allocs, mut alloc_bytes) = (0.0, 0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..ROUND {
            let op = client.next;
            let Some((latency, status, body)) = client.send(tally)? else {
                continue;
            };
            served_s.push(latency);
            let raw = &client.buf;

            let before = LEDGER.snapshot();
            let t = Instant::now();
            let whole_reply = whole.report_json(raw, &mut whole_arena);
            report_s += t.elapsed().as_secs_f64();
            let after = LEDGER.snapshot();
            allocs += after.allocs - before.allocs;
            alloc_bytes += after.bytes - before.bytes;

            let staged_reply = staged_report(
                &mut tracer,
                op,
                &staged,
                &mut staged_arena,
                &mut ingest,
                raw,
            );
            if [&whole_reply, &staged_reply]
                .iter()
                .any(|r| r.0 != status || r.1 != body)
            {
                tally.violation(format!(
                    "request {op}: staged or in-process report differs from served"
                ));
            }
        }
    }
    let n = served_s.len().max(1) as f64;
    let us = |name: &str| tracer.total_s(name) / n * 1e6;
    let stages = [
        "core.ingest",
        "core.featcache.bow",
        "serve.bundle.classify",
        "serve.bundle.assemble",
        "core.report.render",
    ];
    let stage_sum: f64 = stages.iter().map(|s| us(s)).sum();
    let report_us = report_s / n * 1e6;
    let served_us = served_s.iter().sum::<f64>() / n * 1e6;
    out.metric("core.ingest.us", us("core.ingest"));
    out.metric("core.featcache.bow_us", us("core.featcache.bow"));
    out.metric("serve.bundle.classify_us", us("serve.bundle.classify"));
    out.metric("serve.bundle.assemble_us", us("serve.bundle.assemble"));
    out.metric("core.report.render_us", us("core.report.render"));
    out.metric("serve.bundle.report_us", report_us);
    out.metric("serve.bundle.allocs_per_report", allocs as f64 / n);
    out.metric(
        "serve.bundle.alloc_kb_per_report",
        alloc_bytes as f64 / n / 1024.0,
    );
    out.metric("serve.http.transport_us", served_us - report_us);
    out.metric("trace.stage_sum_ratio", stage_sum / report_us);
    let traced_p50_ms = stats::median(&served_s) * 1e3;
    out.metric(
        "trace.overhead_pct",
        (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0,
    );
    eprintln!(
        "traced {n} requests: stages {stage_sum:.1} us vs report_json {report_us:.1} us, served {served_us:.1} us"
    );
    tracer
        .write_tsv(&crate::trace_path(args))
        .map_err(|e| format!("writing spans: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> LabelSets {
        vec![
            ("tm1".to_owned(), vec!["A".to_owned(), "B".to_owned()]),
            (
                "tm3".to_owned(),
                vec!["Miami".to_owned(), "Tampa".to_owned()],
            ),
        ]
    }

    const OK: &str = "{\"status\": \"ok\", \"ingest\": {\"disposition\": \"clean\", \"repaired_points\": 0, \
        \"profile_len\": 40}, \"tasks\": [{\"task\": \"tm1\", \"prediction\": \"A\", \"agreement\": 0.6667, \
        \"models\": {\"svm\": \"A\", \"rfc\": \"B\", \"mlp\": \"A\"}}, {\"task\": \"tm3\", \"prediction\": \
        \"Tampa\", \"agreement\": 1.0000, \"models\": {\"svm\": \"Tampa\", \"rfc\": \"Tampa\", \"mlp\": \"Tampa\"}}]}";
    const QUARANTINED: &str =
        "{\"status\": \"quarantined\", \"ingest\": {\"disposition\": \"quarantined\", \
        \"reason\": \"too_corrupt\", \"repaired_points\": 0, \"profile_len\": 0}, \"tasks\": []}";

    #[test]
    fn well_formed_replies_pass() {
        assert_eq!(
            check_reply(200, OK, true, &labels()),
            Ok(Some("Tampa".to_owned()))
        );
        assert_eq!(check_reply(422, QUARANTINED, false, &labels()), Ok(None));
    }

    #[test]
    fn each_reply_check_rejects_a_corrupted_reply() {
        let l = labels();
        // A label outside its task's set.
        assert!(check_reply(
            200,
            &OK.replace("\"rfc\": \"B\"", "\"rfc\": \"Z\""),
            true,
            &l
        )
        .is_err());
        // A TM-3 label in the TM-1 entry.
        assert!(check_reply(
            200,
            &OK.replacen("\"prediction\": \"A\"", "\"prediction\": \"Miami\"", 1),
            true,
            &l
        )
        .is_err());
        // A prediction that no model voted for.
        assert!(check_reply(
            200,
            &OK.replace("\"prediction\": \"Tampa\"", "\"prediction\": \"Miami\""),
            true,
            &l
        )
        .is_err());
        // A missing task.
        let one_task = OK.split(", {\"task\": \"tm3\"").next().unwrap().to_owned() + "]}";
        assert!(check_reply(200, &one_task, true, &l).is_err());
        // Status and body disagree.
        assert!(check_reply(200, QUARANTINED, false, &l).is_err());
        assert!(check_reply(422, OK, false, &l).is_err());
        // An uncorrupted upload quarantined.
        assert!(check_reply(422, QUARANTINED, true, &l).is_err());
        // Any other status.
        assert!(check_reply(500, OK, true, &l).is_err());
        // A truncated body.
        assert!(check_reply(200, &OK[..OK.len() / 2], true, &l).is_err());
    }

    #[test]
    fn tm3_rate_check_rejects_a_chance_level_classifier() {
        assert!(check_tm3_rate(240, 800).is_ok());
        assert!(check_tm3_rate(80, 800).is_err());
        assert!(check_tm3_rate(0, 0).is_err());
    }

    #[test]
    fn health_counter_is_read_and_a_wrong_one_is_caught() {
        let body = "{\"status\": \"ok\", \"accepted\": 3, \"completed\": 1234, \"active\": 1}";
        assert_eq!(health_completed(body), Some(1234));
        assert_ne!(health_completed(&body.replace("1234", "1233")), Some(1234));
        assert_eq!(health_completed("{}"), None);
    }

    #[test]
    fn variants_differ_only_in_the_rewritten_digits() {
        let bytes = b"<trkpt><ele>12.3456</ele></trkpt><trkpt><ele>7.0009</ele></trkpt>".to_vec();
        let upload = Upload {
            digits: ele_digits(&bytes),
            bytes,
            city: 0,
            clean: true,
        };
        assert_eq!(upload.digits.len(), 2);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        write_variant(&upload, 0, &mut a);
        assert_eq!(a, upload.bytes);
        write_variant(&upload, 17, &mut b);
        assert_eq!(
            String::from_utf8(b).unwrap(),
            "<trkpt><ele>12.3453</ele></trkpt><trkpt><ele>7.0000</ele></trkpt>"
        );
    }
}
