//! `serve-zipf`: an in-process `cim-serve` daemon on a Unix socket with a
//! fresh result store, driven closed-loop from up to two connections by
//! a seeded Zipf stream of `schedule` requests.
//!
//! The key universe is 650 keys: five models × (`layer-by-layer` and
//! `xinf` at x = 0, `wdup` and `wdup+xinf` at x = 1..=64). The first
//! sighting of a key computes it and writes a store row; every repeat
//! reads that row back.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cim_bench::runner::{mix64, CacheKey, ResultStore, RunSummary, ScheduleCache};
use cim_frontend::{canonicalize, CanonOptions};
use cim_serve::{
    build_config, Client, Daemon, DaemonOptions, EngineOptions, ErrorCode, ModelRegistry, Op,
    Request, Response, ServeEngine, StatsSnapshot, Submission,
};
use cim_tune::{Clock, SystemClock};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::compose::compose;
use crate::report::{Outcome, Samples, Steal};
use crate::trace::Tracer;
use crate::{repeat_setup, Run};

/// A request slower than this (or not ok) misses the latency limit.
pub const REQUEST_LIMIT_MS: f64 = 1.0;

const MODELS: [&str; 5] = ["fig5", "TinyYOLOv3", "TinyYOLOv4", "VGG16", "ResNet50"];
const MAX_X: usize = 64;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;
/// Keys re-derived directly through `clsa_core::run` after the run.
const SAMPLE_KEYS: usize = 4;
/// Requests replayed through the store directly in the traced run.
const STORE_REQUESTS: usize = 20_000;
/// Requests of each engine-direct pass in the traced run.
const ENGINE_REQUESTS: usize = 30_000;

#[derive(Debug, Clone, Copy)]
struct Key {
    model: &'static str,
    strategy: &'static str,
    x: usize,
}

fn universe() -> Vec<Key> {
    let mut keys = Vec::new();
    for model in MODELS {
        for strategy in ["layer-by-layer", "xinf"] {
            keys.push(Key {
                model,
                strategy,
                x: 0,
            });
        }
        for x in 1..=MAX_X {
            for strategy in ["wdup", "wdup+xinf"] {
                keys.push(Key { model, strategy, x });
            }
        }
    }
    keys
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf popularity over the universe; which key gets which rank is a
/// seeded permutation.
struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, seed: u64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(mix64(seed));
        let mut key_of_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            key_of_rank.swap(i, j);
        }
        Zipf { cdf, key_of_rank }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.key_of_rank[rank]
    }
}

/// The request stream of one connection.
fn stream_rng(seed: u64, conn: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(conn as u64 + 1)))
}

fn request_line(id: &str, key: &Key) -> Result<String, String> {
    serde_json::to_string(&Request::schedule(id, key.model, key.strategy, key.x))
        .map_err(|e| e.to_string())
}

/// The reply with its id prefix removed, if the reply is an ok result.
fn ok_body<'a>(reply: &'a str, id: &str) -> Option<&'a str> {
    reply
        .strip_prefix("{\"id\":\"")
        .and_then(|r| r.strip_prefix(id))
        .and_then(|r| r.strip_prefix("\","))
        .filter(|body| body.starts_with("\"status\":\"ok\""))
}

/// First-reply bookkeeping shared by every pass: each key's replies
/// must byte-equal its first reply.
#[derive(Default)]
struct Replies {
    first: BTreeMap<usize, String>,
    not_ok: u64,
    mismatched: u64,
    failures: Vec<String>,
}

impl Replies {
    fn record(&mut self, key: usize, id: &str, reply: &str) -> bool {
        match ok_body(reply, id) {
            None => {
                self.not_ok += 1;
                if self.failures.len() < 3 {
                    self.failures.push(format!("request {id}: {reply}"));
                }
                false
            }
            Some(body) => match self.first.get(&key) {
                None => {
                    self.first.insert(key, body.to_string());
                    true
                }
                Some(first) if first == body => true,
                Some(_) => {
                    self.mismatched += 1;
                    if self.failures.len() < 3 {
                        self.failures
                            .push(format!("request {id}: reply differs from the first"));
                    }
                    false
                }
            },
        }
    }

    fn merge(&mut self, other: Replies) {
        for (key, body) in other.first {
            match self.first.get(&key) {
                None => {
                    self.first.insert(key, body);
                }
                Some(first) if *first == body => {}
                Some(_) => {
                    self.mismatched += 1;
                    self.failures
                        .push(format!("key {key}: connections saw different replies"));
                }
            }
        }
        self.not_ok += other.not_ok;
        self.mismatched += other.mismatched;
        self.failures.extend(other.failures);
    }
}

/// A running daemon with its connected clients.
struct Served {
    daemon: JoinHandle<std::io::Result<StatsSnapshot>>,
    clients: Vec<Client>,
    dir: PathBuf,
    warm_errors: u64,
}

fn connect(socket: &std::path::Path) -> Result<Client, String> {
    let mut last = String::new();
    for _ in 0..400 {
        match Client::connect_unix(socket) {
            Ok(c) => return Ok(c),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(format!("connecting {}: {last}", socket.display()))
}

/// Binds a daemon over a fresh store, connects `conns` clients, and
/// warms the model registry (an unknown-strategy request per model
/// resolves and canonicalizes it, then is refused).
fn start(run: &Run<'_>, tag: &str, conns: usize) -> Result<Served, String> {
    let dir = run.scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let socket = dir.join("d.sock");
    let daemon = Daemon::bind(DaemonOptions {
        engine: EngineOptions {
            jobs: run.jobs,
            max_queue: 1024,
            tenant_quota: None,
        },
        cache_dir: Some(dir.join("store")),
        ..DaemonOptions::at(&socket)
    })
    .map_err(|e| format!("binding {}: {e}", socket.display()))?;
    let daemon = std::thread::spawn(move || daemon.run());
    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        clients.push(connect(&socket)?);
    }
    for (i, model) in MODELS.iter().enumerate() {
        let probe = Request::schedule(&format!("warm-{i}"), model, "registry-warmup", 0);
        let reply = clients[0].request(&probe).map_err(|e| e.to_string())?;
        if reply.as_error().map(|e| e.code) != Some(ErrorCode::UnknownStrategy) {
            return Err(format!("registry warm-up of {model} answered {reply:?}"));
        }
    }
    Ok(Served {
        daemon,
        clients,
        dir,
        warm_errors: MODELS.len() as u64,
    })
}

fn stats_of(client: &mut Client) -> Result<StatsSnapshot, String> {
    let reply = client
        .request(&Request::bare("stats", Op::Stats))
        .map_err(|e| e.to_string())?;
    reply
        .as_stats()
        .cloned()
        .ok_or_else(|| format!("stats request answered {reply:?}"))
}

fn stop(mut served: Served) -> Result<(), String> {
    let ack = served.clients[0].request(&Request::bare("shutdown", Op::Shutdown));
    served.clients.clear();
    let joined = served.daemon.join();
    let _ = std::fs::remove_dir_all(&served.dir);
    ack.map_err(|e| e.to_string())?;
    match joined {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon: {e}")),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

/// What one connection saw.
struct Drive {
    latencies_ms: Samples,
    within: u64,
    replies: Replies,
}

/// One closed-loop connection: send, wait for the reply, repeat until
/// `until` on the clock.
fn drive(
    client: &mut Client,
    conn: usize,
    seed: u64,
    zipf: &Zipf,
    keys: &[Key],
    clock: &SystemClock,
    until: Duration,
) -> Result<Drive, String> {
    let mut rng = stream_rng(seed, conn);
    let mut out = Drive {
        latencies_ms: Samples::default(),
        within: 0,
        replies: Replies::default(),
    };
    let mut i = 0u64;
    while clock.now() < until {
        let key = zipf.sample(&mut rng);
        let id = format!("c{conn}-{i}");
        i += 1;
        let line = request_line(&id, &keys[key])?;
        let sent = clock.now();
        let reply = client
            .request_line(&line)
            .map_err(|e| format!("request {id}: {e}"))?;
        let ms = (clock.now() - sent).as_secs_f64() * 1e3;
        out.latencies_ms.push(ms);
        if out.replies.record(key, &id, &reply) && ms <= REQUEST_LIMIT_MS {
            out.within += 1;
        }
    }
    Ok(out)
}

/// Drives every client of `served` for `budget`; merged results.
fn drive_all(
    run: &Run<'_>,
    served: &mut Served,
    zipf: &Zipf,
    keys: &[Key],
    budget: Duration,
) -> Result<(Drive, f64), String> {
    let start = run.clock.now();
    let until = start + budget;
    let results: Vec<Result<Drive, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                s.spawn(move || drive(client, conn, run.seed, zipf, keys, run.clock, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = (run.clock.now() - start).as_secs_f64();
    let mut merged = Drive {
        latencies_ms: Samples::default(),
        within: 0,
        replies: Replies::default(),
    };
    for r in results {
        let d = r?;
        merged.latencies_ms.extend(&d.latencies_ms);
        merged.within += d.within;
        merged.replies.merge(d.replies);
    }
    Ok((merged, elapsed))
}

/// Re-derives a seeded sample of the answered keys through
/// `clsa_core::run` and compares them with the replies.
fn check_sample(out: &mut Outcome, seed: u64, keys: &[Key], replies: &Replies) {
    let answered: Vec<usize> = replies.first.keys().copied().collect();
    if answered.is_empty() {
        out.check(false, || "no key was answered".into());
        return;
    }
    let registry = ModelRegistry::new();
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x5a17));
    for _ in 0..SAMPLE_KEYS {
        let k = answered[(rng.next_u64() % answered.len() as u64) as usize];
        let key = keys[k];
        let body = &replies.first[&k];
        let reply: Result<Response, _> = serde_json::from_str(&format!("{{\"id\":\"s\",{body}"));
        let direct = registry
            .resolve(key.model)
            .and_then(|entry| {
                let (config, _) = build_config(&entry, key.strategy, key.x)?;
                Ok((entry, config))
            })
            .map_err(|e| e.to_string())
            .and_then(|(entry, config)| {
                clsa_core::run(&entry.graph, &config)
                    .map(|r| (entry.pe_min, RunSummary::of(&r)))
                    .map_err(|e| e.to_string())
            });
        let same = match (&reply, &direct) {
            (Ok(r), Ok((pe_min, s))) => r.as_schedule().is_some_and(|r| {
                r.makespan_cycles == s.makespan_cycles
                    && r.utilization == s.utilization
                    && r.total_pes == s.total_pes
                    && r.noc_bytes == s.noc_bytes
                    && r.duplicated_layers == s.duplicated_layers
                    && r.pe_min == *pe_min
            }),
            _ => false,
        };
        out.check(same, || {
            format!("{key:?}: reply {reply:?} differs from clsa_core::run {direct:?}")
        });
    }
}

fn connections(run: &Run<'_>) -> usize {
    run.jobs.clamp(1, 2)
}

/// The untraced run.
pub fn measure(run: &Run<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let keys = universe();
    let zipf = Zipf::new(keys.len(), run.seed);
    let conns = connections(run);
    let (mut served, setup) = repeat_setup(
        run,
        |i| start(run, &format!("serve{i}"), conns),
        |old| {
            let _ = stop(old);
        },
    )?;
    out.metric("setup_s", setup.median(), "s");
    out.timing("setup_s", setup);

    let steal = Steal::start();
    let driven = drive_all(run, &mut served, &zipf, &keys, run.budget());
    let steal = steal.share();
    let (drive, elapsed) = driven?;
    let stats = stats_of(&mut served.clients[0]);
    let warm_errors = served.warm_errors;
    stop(served)?;
    let stats = stats?;

    let latencies = drive.latencies_ms;
    let requests = latencies.len() as u64;
    out.attempted += requests;
    out.failed += drive.replies.not_ok + drive.replies.mismatched;
    out.check(
        drive.replies.not_ok == 0 && drive.replies.mismatched == 0,
        || {
            format!(
                "{} replies not ok, {} differ from their key's first reply: {:?}",
                drive.replies.not_ok, drive.replies.mismatched, drive.replies.failures
            )
        },
    );
    out.check(stats.shed == 0 && stats.errors == warm_errors, || {
        format!(
            "daemon shed {} and refused {} requests",
            stats.shed,
            stats.errors.saturating_sub(warm_errors)
        )
    });
    check_sample(&mut out, run.seed, &keys, &drive.replies);

    let (p50, p90) = (latencies.median(), latencies.percentile(90.0));
    let within = drive.within as f64 / requests.max(1) as f64;
    out.host_metrics(steal, requests as f64, elapsed, [p50, p90], within);
    out.named("serve.rps", requests as f64 / elapsed, "1/s");
    out.named("serve.latency_p50_us", p50 * 1e3, "us");
    out.named("serve.latency_p90_us", p90 * 1e3, "us");
    out.named(
        "serve.latency_p99_us",
        latencies.percentile(99.0) * 1e3,
        "us",
    );
    out.named("serve.within_limit_ratio", within, "ratio");
    out.named(
        "serve.distinct_keys",
        drive.replies.first.len() as f64,
        "count",
    );
    out.named("serve.warm_store", stats.warm_store as f64, "count");
    out.named("serve.coalesced", stats.coalesced as f64, "count");
    out.timing("request_ms", latencies);
    Ok(out)
}

/// One engine-direct pass: `requests` requests of connection 0's
/// stream, parsed, submitted, dispatched and serialized in process, with
/// the engine's final counters and per-request gate times in µs.
struct EnginePass {
    stats: StatsSnapshot,
    requests: usize,
    submit_us: Samples,
    dispatch_us: Samples,
    protocol_us: Samples,
    replies: Replies,
}

fn engine_pass(
    run: &Run<'_>,
    t: &Tracer<'_>,
    tag: &str,
    zipf: &Zipf,
    keys: &[Key],
    requests: usize,
) -> Result<EnginePass, String> {
    let dir = run.scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let engine = ServeEngine::new(
        EngineOptions {
            jobs: run.jobs,
            max_queue: 1024,
            tenant_quota: None,
        },
        Some(store),
        Arc::new(SystemClock::new()),
    );
    let mut rng = stream_rng(run.seed, 0);
    let mut pass = EnginePass {
        stats: engine.stats(),
        requests: 0,
        submit_us: Samples::default(),
        dispatch_us: Samples::default(),
        protocol_us: Samples::default(),
        replies: Replies::default(),
    };
    while pass.requests < requests {
        let key = zipf.sample(&mut rng);
        let id = format!("e-{}", pass.requests);
        t.set_group(pass.requests as u64);
        pass.requests += 1;
        let line = request_line(&id, &keys[key])?;
        let (request, parse_s) = run.timed(|| {
            t.span("serve", "serve.parse", || {
                serde_json::from_str::<Request>(&line)
            })
        });
        let request = request.map_err(|e| e.to_string())?;
        let (submitted, submit_s) =
            run.timed(|| t.span("serve", "serve.submit", || engine.submit(&request)));
        pass.submit_us.push(submit_s * 1e6);
        let response = match submitted {
            Submission::Immediate(r) => r,
            Submission::Enqueued(ticket) => {
                let (done, dispatch_s) =
                    run.timed(|| t.span("serve", "serve.dispatch", || engine.dispatch()));
                pass.dispatch_us.push(dispatch_s * 1e6);
                done.into_iter()
                    .find(|(tk, _)| *tk == ticket)
                    .map(|(_, r)| r)
                    .ok_or_else(|| format!("request {id}: ticket {ticket} never answered"))?
            }
        };
        let (reply, serialize_s) = run.timed(|| {
            t.span("serve", "serve.serialize", || {
                serde_json::to_string(&response)
            })
        });
        pass.protocol_us.push((parse_s + serialize_s) * 1e6);
        let reply = reply.map_err(|e| e.to_string())?;
        pass.replies.record(key, &id, &reply);
    }
    pass.stats = engine.stats();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(pass)
}

/// The traced run: the frontend, the engine gate by gate, the store
/// directly, every first-sighted key composed stage by stage, and the
/// socket's share of the client latency.
pub fn traced(run: &Run<'_>, t: &Tracer<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let keys = universe();
    let zipf = Zipf::new(keys.len(), run.seed);
    let socket_budget = run.budget() / 3;

    // The frontend share of the registry warm-up.
    for model in MODELS {
        let raw = crate::model_graph(model)?;
        t.span("frontend", "frontend.canonicalize", || {
            canonicalize(&raw, &CanonOptions::default())
        })
        .map_err(|e| format!("canonicalizing {model}: {e}"))?;
    }

    // The engine, traced, between two untraced passes over the same
    // requests.
    let quiet = Tracer::off(run.clock);
    let plain =
        |tag: &str| run.timed(|| engine_pass(run, &quiet, tag, &zipf, &keys, ENGINE_REQUESTS));
    let (before, before_s) = plain("engine-before");
    before?;
    let (traced_pass, traced_s) =
        run.timed(|| engine_pass(run, t, "engine-traced", &zipf, &keys, ENGINE_REQUESTS));
    let traced_pass = traced_pass?;
    let (after, after_s) = plain("engine-after");
    after?;
    out.metric(
        "trace.overhead_ratio",
        2.0 * traced_s / (before_s + after_s),
        "ratio",
    );
    let s = &traced_pass.stats;
    out.metric("serve.submit_us_p50", traced_pass.submit_us.median(), "us");
    out.metric(
        "serve.dispatch_us_p50",
        traced_pass.dispatch_us.median(),
        "us",
    );
    out.metric(
        "serve.protocol_us_p50",
        traced_pass.protocol_us.median(),
        "us",
    );
    out.metric("serve.warm_store", s.warm_store as f64, "count");
    out.metric(
        "serve.computed",
        s.ok.saturating_sub(s.warm_store + s.warm_cache + s.coalesced) as f64,
        "count",
    );
    out.metric("serve.coalesced", s.coalesced as f64, "count");
    out.metric("serve.shed", s.shed as f64, "count");
    let r = &traced_pass.replies;
    out.check(
        r.not_ok == 0 && r.mismatched == 0 && s.shed == 0 && s.errors == 0,
        || {
            format!(
                "engine pass: {} not ok, {} differ, stats {s:?}",
                r.not_ok, r.mismatched
            )
        },
    );

    // The store and the schedule cache, called directly.
    let dir = run.scratch("store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let cache = ScheduleCache::new();
    let registry = ModelRegistry::new();
    let mut rng = stream_rng(run.seed, 0);
    let mut stored: BTreeMap<usize, RunSummary> = BTreeMap::new();
    let mut first_sighted = Vec::new();
    let (mut get_us, mut put_us) = (Samples::default(), Samples::default());
    for i in 0..STORE_REQUESTS {
        t.set_group(i as u64);
        let k = zipf.sample(&mut rng);
        let key = keys[k];
        let entry = registry.resolve(key.model).map_err(|e| e.to_string())?;
        let (config, _) = build_config(&entry, key.strategy, key.x).map_err(|e| e.to_string())?;
        let cache_key = CacheKey::schedule(entry.fingerprint, &config);
        if let Some(expected) = stored.get(&k) {
            let (got, secs) =
                run.timed(|| t.span("runner", "runner.store.get", || store.get(&cache_key)));
            get_us.push(secs * 1e6);
            out.check(got.as_ref() == Some(expected), || {
                format!("store row of {key:?} differs")
            });
        } else {
            let result = t
                .span("runner", "runner.cache.run", || {
                    cache.run(entry.fingerprint, &entry.graph, &config)
                })
                .map_err(|e| format!("{key:?}: {e}"))?;
            let summary = RunSummary::of(&result);
            let ((), secs) = run.timed(|| {
                t.span("runner", "runner.store.put", || {
                    store.put(&cache_key, &summary)
                })
            });
            put_us.push(secs * 1e6);
            stored.insert(k, summary);
            first_sighted.push((k, entry, config));
        }
    }
    let st = store.stats();
    out.metric("runner.store.get_us_p50", get_us.median(), "us");
    out.metric("runner.store.put_us_p50", put_us.median(), "us");
    out.metric("runner.store.hits", st.hits as f64, "count");
    out.metric("runner.store.writes", st.writes as f64, "count");
    let cs = cache.stats();
    out.metric("runner.cache.stage_hits", cs.stage_hits() as f64, "count");
    out.metric(
        "runner.cache.schedule_hits",
        cs.schedule_hits() as f64,
        "count",
    );
    out.metric(
        "runner.cache.hit_ratio",
        cs.hits() as f64 / (cs.stage_lookups + cs.schedule_lookups).max(1) as f64,
        "ratio",
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // Every first-sighted key, composed stage by stage.
    let (mut sets, mut edges) = (0u64, 0u64);
    for (n, (k, entry, config)) in first_sighted.iter().enumerate() {
        t.set_group(n as u64);
        let composed = t.span("bench", "key", || compose(t, &entry.graph, config));
        let reference = clsa_core::run(&entry.graph, config);
        match (composed, reference) {
            (Ok(c), Ok(r)) => {
                out.check(c.matches(&r), || {
                    format!("{:?}: composed stages differ from clsa_core::run", keys[*k])
                });
                sets += c.sets();
                edges += c.deps.num_edges() as u64;
            }
            (c, r) => out.check(false, || {
                format!(
                    "{:?}: composed {:?} vs run {:?}",
                    keys[*k],
                    c.err(),
                    r.err()
                )
            }),
        }
    }
    out.metric("core.sets", sets as f64, "count");
    out.metric("core.dep_edges", edges as f64, "count");

    // The socket: client latency minus the engine's own latency.
    let mut served = start(run, "socket", 1)?;
    let driven = drive_all(run, &mut served, &zipf, &keys, socket_budget);
    let stats = stats_of(&mut served.clients[0]);
    stop(served)?;
    let (driven, _) = driven?;
    let stats = stats?;
    out.metric(
        "serve.socket_us_p50",
        driven.latencies_ms.median() * 1e3 - stats.p50_ns as f64 / 1e3,
        "us",
    );
    out.named(
        "serve.client_p50_us",
        driven.latencies_ms.median() * 1e3,
        "us",
    );
    out.named("serve.engine_p50_us", stats.p50_ns as f64 / 1e3, "us");
    Ok(out)
}
