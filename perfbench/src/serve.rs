//! `serve`: HTTP keep-alive requests against `autotype_serve::serve` on
//! loopback, with the 15 table packs and the default verdict cache.
//!
//! The mix is mostly single-value `/detect`, some 8-value `/detect`
//! batches and some `/detect/column` requests on table columns. Values
//! and columns follow a Zipf popularity; the value universe's (pack,
//! value) working set is larger than the cache. A fixed closed-loop
//! warm-up brings the cache to where its hit rate has settled. Then come
//! two fixed rates (light, busy), open loop, each request timed from when
//! it was due so that a stall also counts against the requests queued
//! behind it; then one user alone, closed loop; and last an embedded
//! caller that sends more requests of the same mix in-process through
//! `json::parse` and the server's runtime. The embedded single-value
//! lookups give the end-to-end `p50_ms`.
//!
//! Why not an HTTP figure: on a shared 2-core virtual machine the
//! open-loop medians were not repeatable (when the host slowed the guest
//! by a third, the light-rate median went from 0.8 to 3 ms), and even the
//! lone user's round trip, mostly two thread wake-ups on loopback, had a
//! quartile spread of 0.35 of its median over 10 seeds. The embedded
//! lookup runs on one thread with no wake-ups. Why single values only:
//! the median over all requests moves with the assumed batch and column
//! shares; the single-value figure moves with them only through the
//! cache.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use autotype_serve::{json, serve, DetectorRuntime, Metrics, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{self, Oracle, CACHE_CAPACITY};
use crate::report::{quoted, Metric, Report};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Args;

/// Fixed offered rates (requests/s): about 25% and 60% of the rate the
/// seed commit sustained on a 2-core machine.
const LIGHT_RPS: f64 = 400.0;
const BUSY_RPS: f64 = 950.0;

/// Requests of the lone user (closed loop, one connection): about 3 s at
/// the seed commit's speed.
const SOLO: usize = 8_000;

/// Request mix (shares of single, batch; the rest are column requests).
/// The shares and the Zipf exponent are assumptions, not measured
/// traffic: README.md says how the end-to-end median moves with them.
const SINGLE_SHARE: f64 = 0.80;
const BATCH_SHARE: f64 = 0.12;
const BATCH_VALUES: usize = 8;

/// Zipf exponent of value and column popularity.
const ZIPF_S: f64 = 1.0;

/// Warm-up: closed-loop windows of this many requests. Every run warms
/// the same amount, so each starts measuring from a comparable cache. By
/// then the window hit rate moves by about 0.01 from window to window;
/// the report carries the last window's rate and its change.
const WARM_WINDOW: usize = 2_000;
const WARM_WINDOWS: usize = 10;

/// Requests of the embedded caller, sent in-process through `json::parse`
/// and `detect_*`: about 4,000 single values, 2 to 4 s.
const EMBEDDED: usize = 5_000;
/// Single-value lookups per block of the embedded `p50_ms` (below).
const EMBEDDED_BLOCK: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Single,
    Batch,
    Column,
}

struct Request {
    kind: Kind,
    body: String,
    values: Vec<String>,
}

impl Request {
    fn path(&self) -> &'static str {
        match self.kind {
            Kind::Column => "/detect/column",
            _ => "/detect",
        }
    }
}

/// One answered (or failed) request.
struct Sample {
    request: usize,
    /// Due → response complete, and send → response complete.
    latency_ms: f64,
    rtt_us: f64,
    /// How far behind schedule the send ran.
    late_ms: f64,
    /// Pack ids the response named, or `None` on a transport/HTTP error
    /// or a body that is not a verdict.
    packs: Option<Vec<Option<String>>>,
    response_bytes: usize,
}

/// Zipf popularity over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen_range(0.0..*self.cdf.last().expect("non-empty ranking"));
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Shuffle each class, then merge the classes into one ranking in which
/// every prefix holds each class in about its overall proportion: each
/// rank goes to the class furthest below its share so far.
fn interleave<T>(mut classes: Vec<Vec<T>>, rng: &mut StdRng) -> Vec<T> {
    for class in &mut classes {
        shuffle(class, rng);
    }
    let sizes: Vec<usize> = classes.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    let mut taken = vec![0usize; classes.len()];
    let mut classes: Vec<_> = classes.into_iter().map(Vec::into_iter).collect();
    (1..=total)
        .map(|rank| {
            // Deficit of class c after `rank` ranks: sizes[c]·rank/total −
            // taken[c], compared without dividing by `total`.
            let c = (0..classes.len())
                .filter(|&c| taken[c] < sizes[c])
                .max_by_key(|&c| (sizes[c] * rank) as i64 - (taken[c] * total) as i64)
                .expect("a class with values left");
            taken[c] += 1;
            classes[c].next().expect("class not exhausted")
        })
        .collect()
}

/// Seeded request generator.
struct Traffic {
    rng: StdRng,
    universe: Vec<String>,
    columns: Vec<Vec<String>>,
    value_rank: Zipf,
    column_rank: Zipf,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E);
        let corpus = crate::table::corpus(seed ^ 0x05E4_EC01);
        // How deep into the 15 tiers a value goes depends on its column's
        // type: a typed value resolves at its type's tier, an untyped one
        // falls through all of them. Under Zipf the top few ranks carry
        // much of the traffic, so which types land there would move the
        // median request by seed. Instead every type (and the untyped
        // class) takes turns down the ranking in its overall proportion;
        // the seed picks the values within a class, not the cost profile.
        let mut values: BTreeMap<Option<&str>, Vec<String>> = BTreeMap::new();
        let mut columns: BTreeMap<Option<&str>, Vec<Vec<String>>> = BTreeMap::new();
        let mut seen = HashSet::new();
        for column in corpus {
            for v in &column.values {
                if seen.insert(v.clone()) {
                    values.entry(column.truth).or_default().push(v.clone());
                }
            }
            columns.entry(column.truth).or_default().push(column.values);
        }
        let universe = interleave(values.into_values().collect(), &mut rng);
        let columns = interleave(columns.into_values().collect(), &mut rng);
        Traffic {
            value_rank: Zipf::new(universe.len()),
            column_rank: Zipf::new(columns.len()),
            rng,
            universe,
            columns,
        }
    }

    fn value(&mut self) -> String {
        self.universe[self.value_rank.sample(&mut self.rng)].clone()
    }

    fn request(&mut self) -> Request {
        let pick: f64 = self.rng.gen_range(0.0..1.0);
        let (kind, values) = if pick < SINGLE_SHARE {
            (Kind::Single, vec![self.value()])
        } else if pick < SINGLE_SHARE + BATCH_SHARE {
            (
                Kind::Batch,
                (0..BATCH_VALUES).map(|_| self.value()).collect(),
            )
        } else {
            let column = self.column_rank.sample(&mut self.rng);
            (Kind::Column, self.columns[column].clone())
        };
        let body = match kind {
            Kind::Single => format!("{{\"value\":{}}}", quoted(&values[0])),
            _ => {
                let items: Vec<String> = values.iter().map(|v| quoted(v)).collect();
                format!("{{\"values\":[{}]}}", items.join(","))
            }
        };
        Request { kind, body, values }
    }

    fn requests(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.request()).collect()
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Send one request and read the whole response: (status, body).
    fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((
            status,
            String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?,
        ))
    }
}

/// The pack each verdict of a response names (`/detect` answers a
/// `results` list, `/detect/column` one verdict); `None` if the body is not
/// a verdict.
fn response_packs(body: &str) -> Option<Vec<Option<String>>> {
    let parsed = json::parse(body).ok()?;
    let pack = |verdict: &json::Json| {
        verdict
            .get("pack")
            .and_then(json::Json::as_str)
            .map(str::to_string)
    };
    Some(match parsed.get("results").and_then(json::Json::as_array) {
        Some(results) => results.iter().map(pack).collect(),
        None => vec![pack(&parsed)],
    })
}

/// Send `requests[first..first + n]`, open loop at `rate` (due times from
/// `start`) or closed loop when `rate` is `None`, over `clients` keep-alive
/// connections; request i goes out on connection i % clients.
fn drive(
    addr: SocketAddr,
    requests: &[Request],
    first: usize,
    n: usize,
    rate: Option<f64>,
    clients: usize,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut client = Client::connect(addr).ok();
                    for i in (c..n).step_by(clients) {
                        let due =
                            rate.map_or(Duration::ZERO, |r| Duration::from_secs_f64(i as f64 / r));
                        let now = start.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = start.elapsed();
                        let request = &requests[first + i];
                        if client.is_none() {
                            client = Client::connect(addr).ok();
                        }
                        let answer = client
                            .as_mut()
                            .map(|cl| cl.call("POST", request.path(), &request.body));
                        let done = start.elapsed();
                        let (packs, response_bytes) = match answer {
                            Some(Ok((200, body))) => (response_packs(&body), body.len()),
                            _ => {
                                client = None;
                                (None, 0)
                            }
                        };
                        let due = if rate.is_some() { due } else { sent };
                        out.push(Sample {
                            request: first + i,
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            rtt_us: (done - sent).as_secs_f64() * 1e6,
                            late_ms: sent.saturating_sub(due).as_secs_f64() * 1e3,
                            packs,
                            response_bytes,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.request);
    samples
}

/// One fixed-rate phase's latency summary. A failed request counts as
/// slower than any answered one.
struct Phase {
    p50_ms: f64,
    p99_ms: f64,
    late_p99_ms: f64,
}

impl Phase {
    fn of(samples: &[Sample]) -> Phase {
        let latency: Vec<f64> = samples
            .iter()
            .map(|s| {
                if s.packs.is_some() {
                    s.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
        Phase {
            p50_ms: percentile(&latency, 50.0),
            p99_ms: percentile(&latency, 99.0),
            late_p99_ms: percentile(&late, 99.0),
        }
    }
}

/// The counters a `/metrics` scrape carries, by name.
fn scrape(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    let (status, body) = Client::connect(addr)
        .and_then(|mut c| c.call("GET", "/metrics", ""))
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn counter(scraped: &[(String, f64)], name: &str) -> f64 {
    scraped
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Set up the service `SETUPS` times (engine, the 15 packs, runtime,
/// listener), keep the last one running, and measure it.
pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let mut servers: Vec<ServerHandle> = Vec::new();
    let setup = fixture::setup_table_packs(tracer, report, |packs| {
        let runtime = Arc::new(DetectorRuntime::from_packs(
            fixture::validators(packs)?,
            fixture::runtime_workers(),
            CACHE_CAPACITY,
        ));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let handle = serve(runtime.clone(), config).map_err(|e| format!("bind: {e}"))?;
        let addr = handle.addr();
        servers.push(handle);
        Ok((runtime, addr))
    });
    let live = servers.pop();
    for earlier in servers {
        earlier.shutdown();
    }
    let outcome = setup.and_then(|(packs, (runtime, addr))| {
        let reference_packs = fixture::validators(&packs)?;
        measure(args, tracer, report, &runtime, addr, &reference_packs)
    });
    if let Some(handle) = live {
        handle.shutdown();
    }
    outcome
}

fn measure(
    args: &Args,
    tracer: &Tracer,
    report: &mut Report,
    runtime: &DetectorRuntime,
    addr: SocketAddr,
    reference_packs: &[autotype::PackValidator],
) -> Result<(), String> {
    let clients = fixture::runtime_workers().min(2);
    let mut traffic = Traffic::new(args.seed);
    let secs = args.seconds.as_secs_f64();
    // Light and busy take 60% of the run; the lone user about the rest.
    let light_n = (LIGHT_RPS * secs * 0.35).ceil() as usize;
    let busy_n = (BUSY_RPS * secs * 0.25).ceil() as usize;
    let requests =
        traffic.requests(WARM_WINDOW * WARM_WINDOWS + light_n + busy_n + SOLO + EMBEDDED);
    let mut samples: Vec<Sample> = Vec::new();

    // Warm the cache, watching the per-window hit rate settle.
    let m = runtime.metrics();
    let mut hit_rates = Vec::new();
    for w in 0..WARM_WINDOWS {
        let (h0, m0) = (Metrics::read(&m.cache_hits), Metrics::read(&m.cache_misses));
        samples.extend(drive(
            addr,
            &requests,
            w * WARM_WINDOW,
            WARM_WINDOW,
            None,
            clients,
        ));
        let (h, mi) = (
            Metrics::read(&m.cache_hits) - h0,
            Metrics::read(&m.cache_misses) - m0,
        );
        hit_rates.push(h as f64 / (h + mi).max(1) as f64);
    }
    if let [.., before_last, last] = hit_rates[..] {
        report.diagnostic(Metric::new("warm_hit_rate", last, "ratio"));
        report.diagnostic(Metric::new(
            "warm_hit_rate_change",
            last - before_last,
            "ratio",
        ));
    }

    // The fixed rates.
    let before = scrape(addr)?;
    let first = WARM_WINDOW * WARM_WINDOWS;
    let light_samples = drive(addr, &requests, first, light_n, Some(LIGHT_RPS), clients);
    let busy_samples = drive(
        addr,
        &requests,
        first + light_n,
        busy_n,
        Some(BUSY_RPS),
        clients,
    );
    let solo_samples = drive(addr, &requests, first + light_n + busy_n, SOLO, None, 1);
    let after = scrape(addr)?;
    let embedded_samples = embedded(
        tracer,
        report,
        runtime,
        &requests,
        first + light_n + busy_n + SOLO,
    );
    report.set_peak_rss();

    let light = Phase::of(&light_samples);
    let busy = Phase::of(&busy_samples);
    let solo = Phase::of(&solo_samples);
    let solo_single: Vec<f64> = solo_samples
        .iter()
        .filter(|s| requests[s.request].kind == Kind::Single)
        .map(|s| {
            if s.packs.is_some() {
                s.latency_ms
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let embedded_single: Vec<f64> = embedded_samples
        .iter()
        .filter(|s| requests[s.request].kind == Kind::Single)
        .map(|s| s.latency_ms)
        .collect();
    // Single-value lookup times form steps by tier depth, and the plain
    // median sat on the step between values resolved early and junk that
    // falls through all 15 tiers, so it jumped with small shifts in the
    // mix. Block means are continuous in the mix; their median drops
    // blocks a host stall hit.
    let block_means: Vec<f64> = embedded_single
        .chunks(EMBEDDED_BLOCK)
        .map(|block| block.iter().sum::<f64>() / block.len() as f64)
        .collect();
    let p50_embedded = median(&block_means);
    report.end_to_end("p50_ms", p50_embedded);
    report.named(Metric::ms("p50_ms_embedded", p50_embedded));
    report.named(Metric::ms("p50_ms_single", percentile(&solo_single, 50.0)));
    report.named(Metric::ms("p50_ms_solo", solo.p50_ms));
    report.named(Metric::ms("p50_ms_light", light.p50_ms));
    report.named(Metric::ms("p99_ms_light", light.p99_ms));
    report.named(Metric::ms("p50_ms_busy", busy.p50_ms));
    report.named(Metric::ms("p99_ms_busy", busy.p99_ms));
    report.diagnostic(Metric::count("light_requests", light_samples.len() as f64));
    report.diagnostic(Metric::count("busy_requests", busy_samples.len() as f64));

    // Layer numbers from the load itself and the /metrics scrapes.
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let (hits, misses) = (
        delta("autotype_cache_hits_total"),
        delta("autotype_cache_misses_total"),
    );
    report.layer("cache.hit_rate", hits / (hits + misses).max(1.0));
    report.layer("cache.entries", counter(&after, "autotype_cache_entries"));
    report.layer("http.errors", delta("autotype_http_errors_total"));
    report.layer("http.shed", delta("autotype_connections_shed_total"));
    report.layer("gen.late_ms_p99", busy.late_p99_ms);
    let rtt = |kind: Kind| {
        let xs: Vec<f64> = solo_samples
            .iter()
            .filter(|s| requests[s.request].kind == kind && s.packs.is_some())
            .map(|s| s.rtt_us)
            .collect();
        median(&xs)
    };
    report.layer("http.rtt_us_single", rtt(Kind::Single));
    report.layer("http.rtt_us_batch", rtt(Kind::Batch));
    report.layer("http.rtt_us_column", rtt(Kind::Column));
    // The server's own share of a single-value round trip: RTT minus the
    // parse and detect work it wraps.
    report.layer(
        "http.self_us",
        (report.layer_value("http.rtt_us_single") - p50_embedded * 1e3).max(0.0),
    );
    let measured: Vec<&Sample> = light_samples.iter().chain(&busy_samples).collect();
    report.layer(
        "json.request_bytes",
        measured
            .iter()
            .map(|s| requests[s.request].body.len() as f64)
            .sum::<f64>()
            / measured.len().max(1) as f64,
    );
    report.layer(
        "json.response_bytes",
        measured
            .iter()
            .map(|s| s.response_bytes as f64)
            .sum::<f64>()
            / measured.len().max(1) as f64,
    );
    samples.extend(light_samples);
    samples.extend(busy_samples);
    samples.extend(solo_samples);
    samples.extend(embedded_samples);

    if tracer.enabled() {
        fixture::fanout(report);
    }

    // Every response against the reference detector.
    let mut oracle = Oracle::new(tracer, reference_packs);
    let id = |p: Option<usize>| p.map(|p| reference_packs[p].pack_id().to_string());
    for s in &samples {
        let request = &requests[s.request];
        let expected: Vec<Option<String>> = match request.kind {
            Kind::Column => vec![id(oracle.column(&request.values))],
            _ => request.values.iter().map(|v| id(oracle.value(v))).collect(),
        };
        let ok = s.packs.as_ref() == Some(&expected);
        if !ok {
            report.mismatch(format!(
                "request {} ({}): got {:?}, expected {expected:?}",
                s.request,
                request.path(),
                s.packs
            ));
        }
        report.op(ok);
    }
    oracle.record(report);
    Ok(())
}

/// The embedded caller: requests `requests[first..]` sent in-process
/// through `json::parse` and the runtime's detect call, one at a time,
/// each timed from parse to verdict. It is also the traced run's view of
/// the request path (HTTP itself cannot be wrapped from outside): spans
/// wrap both calls, and the runtime counters are diffed around it.
fn embedded(
    tracer: &Tracer,
    report: &mut Report,
    runtime: &DetectorRuntime,
    requests: &[Request],
    first: usize,
) -> Vec<Sample> {
    let m = runtime.metrics();
    let read = |c: &std::sync::atomic::AtomicU64| Metrics::read(c);
    let (h0, m0, s0, c0) = (
        read(&m.cache_hits),
        read(&m.cache_misses),
        read(&m.probes_saved),
        read(&m.executors_cloned),
    );
    let id = |p: &Option<usize>| p.map(|p| runtime.packs()[p].pack_id().to_string());
    let mut samples = Vec::new();
    let mut values = 0usize;
    for (i, request) in requests.iter().enumerate().skip(first) {
        tracer.next_op();
        let start = Instant::now();
        let parsed = tracer.span("json.parse", || json::parse(&request.body));
        let items: Vec<String> = match &parsed {
            Ok(parsed) => match parsed.get("value").and_then(json::Json::as_str) {
                Some(v) => vec![v.to_string()],
                None => parsed
                    .get("values")
                    .and_then(json::Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect(),
            },
            Err(_) => Vec::new(),
        };
        values += items.len();
        let packs: Vec<Option<String>> = tracer.span("runtime.detect", || match request.kind {
            Kind::Column => vec![id(&runtime.detect_column(&items))],
            _ => runtime.detect_batch(&items).iter().map(id).collect(),
        });
        let elapsed = start.elapsed();
        samples.push(Sample {
            request: i,
            latency_ms: elapsed.as_secs_f64() * 1e3,
            rtt_us: elapsed.as_secs_f64() * 1e6,
            late_ms: 0.0,
            packs: parsed.is_ok().then_some(packs),
            response_bytes: 0,
        });
    }
    let issued = (read(&m.cache_hits) - h0 + read(&m.cache_misses) - m0) as f64;
    let n = samples.len().max(1) as f64;
    report.layer("runtime.probes_issued", issued / n);
    report.layer(
        "runtime.probes_saved",
        (read(&m.probes_saved) - s0) as f64 / n,
    );
    report.layer(
        "runtime.executors_cloned",
        (read(&m.executors_cloned) - c0) as f64 / n,
    );
    report.layer(
        "runtime.issued_ratio",
        issued / (values.max(1) * runtime.packs().len()) as f64,
    );
    samples
}
