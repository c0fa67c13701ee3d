//! `probe_match`: probe matching against a 10⁴-athlete candidate pool.
//!
//! Set-up builds the `featstore` store and the `annindex` IVF index in
//! a fresh directory. The measured phase repeats
//! `elev_core::scale::scale_sweep` in ANN mode: each call regenerates
//! shard 0, draws 24 stratified probes per city from the first 1000
//! athletes, streams every stored row for the exact reference scan,
//! then reads posting lists and rescores candidates with positioned
//! reads. An operation is one probe.

use crate::alloc::{mib, LEDGER};
use crate::trace::Tracer;
use crate::{cpu, stats, Args, Outcome};
use annindex::{AnnIndex, ANN_MANIFEST, CODEBOOK_FILE};
use elev_core::featcache::{self, SharedPipeline};
use elev_core::scale::{
    build_store, scale_sweep, AnnSettings, ScaleConfig, ScaleReport, SCALE_NGRAM,
};
use exec::Executor;
use featstore::{FeatureStore, RowBuf, ShardEntry, ShardWriter, StoreManifest};
use routegen::AthleteHabits;
use sparsemat::SparseVec;
use std::path::{Path, PathBuf};
use std::time::Instant;
use textrep::{Discretizer, FeatureSelection};

/// Candidate athletes.
const ATHLETES: usize = 10_000;
/// Candidate-pool sizes each sweep reports; probes come from athletes
/// below the first.
const POOL_SIZES: [usize; 3] = [1_000, 3_000, 10_000];
/// Stratified probes per city per sweep call.
const PROBES_PER_CITY: usize = 24;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Least recall@3 of the index against the exact scan, per pool size.
const MIN_RECALL3: f64 = 0.95;
/// Least TM-3 (home city) top-1 rate; chance is 1/10.
const MIN_TM3_TOP1: f64 = 0.5;

/// A directory under `.bench_out` that is removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn fresh(tag: &str) -> Result<Self, String> {
        let path = PathBuf::from(".bench_out").join(format!("probe-{}-{tag}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(seed: u64, dir: &Path) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(ATHLETES, seed);
    cfg.pop_sizes = POOL_SIZES.to_vec();
    cfg.probes_per_city = PROBES_PER_CITY;
    cfg.store_dir = dir.to_path_buf();
    cfg.ann = Some(AnnSettings::default());
    cfg
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds the store and the index the way a first `scale_sweep` does.
fn build(cfg: &ScaleConfig, exec: &Executor) -> Result<(), String> {
    build_store(cfg, exec).map_err(err)?;
    let store = FeatureStore::open(&cfg.store_dir).map_err(err)?;
    let ann = cfg.ann.expect("ANN settings");
    AnnIndex::ensure(&store, ann.centroids, cfg.population.seed, exec).map_err(err)?;
    Ok(())
}

/// `(store bytes, index bytes)` on disk.
fn disk_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let (mut store, mut index) = (0, 0);
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let entry = entry.map_err(err)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().map_err(err)?.len();
        if name.ends_with(".ivf") || name == ANN_MANIFEST || name == CODEBOOK_FILE {
            index += len;
        } else {
            store += len;
        }
    }
    Ok((store, index))
}

/// Per-pool-size row counts, recounted by streaming every stored row.
fn recount(store: &FeatureStore, sizes: &[usize]) -> Result<Vec<u64>, String> {
    let mut counts = vec![0u64; sizes.len()];
    let mut row = RowBuf::default();
    for s in 0..store.manifest().shards.len() {
        let mut reader = store.reader(s).map_err(err)?;
        while reader.next_row(&mut row).map_err(err)? {
            for (c, &size) in counts.iter_mut().zip(sizes) {
                if row.athlete < size as u64 {
                    *c += 1;
                }
            }
        }
    }
    Ok(counts)
}

/// The athletes a sweep over `cfg` probes: per city, the first
/// `probes_per_city` athletes below the smallest pool size.
fn probe_athletes(cfg: &ScaleConfig) -> Vec<AthleteHabits> {
    let pop = &cfg.population;
    let mut per_city = vec![0usize; pop.cities.len()];
    let mut picks = Vec::new();
    for id in 0..(cfg.pop_sizes[0].min(pop.athletes) as u64) {
        let habits = pop.habits(id);
        if per_city[habits.city_index] < cfg.probes_per_city {
            per_city[habits.city_index] += 1;
            picks.push(habits);
        }
    }
    picks
}

/// The probes' feature rows: each probe athlete's next activity.
fn probe_rows(cfg: &ScaleConfig, pipeline: &SharedPipeline) -> Vec<SparseVec> {
    let pop = &cfg.population;
    let terrain = pop.terrain();
    probe_athletes(cfg)
        .iter()
        .map(|habits| {
            let mut acts = pop.athlete_activities(&terrain, habits.id, habits.weekly_cadence + 1);
            let probe = acts.pop().expect("cadence + 1 activities");
            pipeline
                .pipeline()
                .transform_sparse(&probe.elevation_profile())
        })
        .collect()
}

/// Checks a sweep report: one point per pool size, each with the
/// recounted track total, TM-1 top-3 at least top-1, and TM-3 top-1
/// well above chance; with `ann`, recall@3 of at least
/// [`MIN_RECALL3`] at every size and fewer rows rescored than a full
/// scan would touch.
fn check_report(
    report: &ScaleReport,
    probes: usize,
    tracks: &[u64],
    ann: bool,
) -> Result<(), String> {
    if report.probes != probes {
        return Err(format!("{} probes, expected {probes}", report.probes));
    }
    if report.points.len() != POOL_SIZES.len() {
        return Err(format!(
            "{} points for {} pool sizes",
            report.points.len(),
            POOL_SIZES.len()
        ));
    }
    for ((p, &size), &n) in report.points.iter().zip(&POOL_SIZES).zip(tracks) {
        if p.athletes != size || p.tracks != n {
            return Err(format!(
                "pool {size}: {} athletes, {} tracks; the store holds {n}",
                p.athletes, p.tracks
            ));
        }
        if p.tm1_top3 < p.tm1_top1 {
            return Err(format!(
                "pool {size}: TM-1 top-3 {} below top-1 {}",
                p.tm1_top3, p.tm1_top1
            ));
        }
        if p.tm3_top1 < MIN_TM3_TOP1 {
            return Err(format!(
                "pool {size}: TM-3 top-1 {} below {MIN_TM3_TOP1}",
                p.tm3_top1
            ));
        }
    }
    match (&report.ann, ann) {
        (None, false) => Ok(()),
        (Some(_), false) => Err("an exact sweep reported an ANN section".to_owned()),
        (None, true) => Err("an ANN sweep reported no ANN section".to_owned()),
        (Some(info), true) => {
            if info.recall3.len() != POOL_SIZES.len() {
                return Err(format!(
                    "{} recall figures for {} pool sizes",
                    info.recall3.len(),
                    POOL_SIZES.len()
                ));
            }
            if let Some((size, r)) = POOL_SIZES
                .iter()
                .zip(&info.recall3)
                .find(|(_, &r)| r < MIN_RECALL3)
            {
                return Err(format!("pool {size}: recall@3 {r} below {MIN_RECALL3}"));
            }
            if info.rows_scanned >= info.rows_total {
                return Err(format!(
                    "rescored {} of {} rows: no fewer than a full scan",
                    info.rows_scanned, info.rows_total
                ));
            }
            Ok(())
        }
    }
}

/// The store and the index built stage by stage from public calls, as
/// `build_store` and `AnnIndex::ensure` build them, with spans around
/// generation, vocabulary fitting, featurization, writing and
/// indexing. Returns the fitted pipeline.
fn staged_build(
    t: &mut Tracer,
    cfg: &ScaleConfig,
    exec: &Executor,
) -> Result<SharedPipeline, String> {
    let pop = &cfg.population;
    let terrain = pop.terrain();
    let fingerprint = cfg.store_fingerprint();
    let shard0 = t.span("routegen.generate", 0, |_| pop.generate_shard(&terrain, 0));
    let pipeline = t.span("textrep.fit", 0, |_| {
        let profiles: Vec<Vec<f64>> = shard0
            .athletes
            .iter()
            .flat_map(|a| &a.activities)
            .map(|act| act.elevation_profile())
            .collect();
        featcache::pipeline_for(
            &profiles,
            Discretizer::Floor,
            SCALE_NGRAM,
            FeatureSelection::standard(),
        )
    });
    drop(shard0);
    let n_cols = pipeline.pipeline().n_features();
    let mut entries = Vec::with_capacity(pop.n_shards());
    for s in 0..pop.n_shards() {
        let shard = t.span("routegen.generate", s as u64, |_| {
            pop.generate_shard(&terrain, s)
        });
        let rows: Vec<(u64, u32, u32, SparseVec)> = t.span("textrep.transform", s as u64, |_| {
            shard
                .athletes
                .iter()
                .flat_map(|a| {
                    a.activities.iter().enumerate().map(|(ai, act)| {
                        let sv = pipeline
                            .pipeline()
                            .transform_sparse(&act.elevation_profile());
                        (a.habits.id, a.habits.city_index as u32, ai as u32, sv)
                    })
                })
                .collect()
        });
        let meta = t.span("featstore.write", s as u64, |_| {
            let mut w = ShardWriter::create(&cfg.store_dir, s, n_cols as u64, fingerprint)?;
            for (athlete, city, activity, sv) in &rows {
                w.append_row(*athlete, *city, *activity, sv.indices(), sv.values())?;
            }
            w.finish()
        });
        let meta = meta.map_err(err)?;
        entries.push(ShardEntry {
            index: s,
            file: meta.file,
            rows: meta.rows,
        });
    }
    let manifest = StoreManifest {
        config: fingerprint,
        n_cols: n_cols as u64,
        shard_size: pop.shard_size as u64,
        athletes: pop.athletes as u64,
        generation: 1,
        shards: entries,
    };
    t.span("featstore.write", 0, |_| {
        FeatureStore::publish_manifest(&cfg.store_dir, &manifest)
    })
    .map_err(err)?;
    let ann = cfg.ann.expect("ANN settings");
    t.span("annindex.build", 0, |_| {
        let store = FeatureStore::open(&cfg.store_dir)?;
        AnnIndex::ensure(&store, ann.centroids, pop.seed, exec)
    })
    .map_err(err)?;
    Ok(pipeline)
}

/// Every file of `a` has a byte-identical twin in `b`, and no more.
fn same_files(a: &Path, b: &Path) -> Result<bool, String> {
    let names = |d: &Path| -> Result<Vec<String>, String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .map_err(err)?
            .map(|e| {
                e.map(|e| e.file_name().to_string_lossy().into_owned())
                    .map_err(err)
            })
            .collect::<Result<_, _>>()?;
        v.sort();
        Ok(v)
    };
    let files = names(a)?;
    if files != names(b)? {
        return Ok(false);
    }
    for f in files {
        if std::fs::read(a.join(&f)).map_err(err)? != std::fs::read(b.join(&f)).map_err(err)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Runs the probe-matching workload.
///
/// # Errors
///
/// Store, index and file-system failures during set-up or tracing.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let exec = Executor::from_env();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        drop(kept.take());
        featcache::reset();
        let dir = TempDir::fresh(&format!("setup{k}"))?;
        let cfg = config(args.seed, &dir.0);
        let t = Instant::now();
        build(&cfg, &exec)?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some(dir);
    }
    let dir = kept.expect("at least one set-up");
    let cfg = config(args.seed, &dir.0);
    let store = FeatureStore::open(&dir.0).map_err(err)?;
    let tracks = recount(&store, &POOL_SIZES)?;
    let probes = probe_athletes(&cfg).len();

    let mut out = Outcome::default();
    let mut violations = Vec::new();
    let (mut per_probe_ms, mut calls) = (Vec::new(), Vec::new());
    let cpu0 = cpu::threads_ns(None)?;
    LEDGER.reset_peak();
    let t0 = Instant::now();
    while out.attempted == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        out.attempted += probes as u64;
        let t = Instant::now();
        match scale_sweep(&cfg, &exec) {
            Ok(report) => {
                let dt = t.elapsed().as_secs_f64();
                calls.push(dt);
                per_probe_ms.push(dt * 1e3 / probes as f64);
                if let Err(e) = check_report(&report, probes, &tracks, true) {
                    violations.push(format!("sweep {}: {e}", calls.len()));
                }
            }
            Err(e) => {
                out.failed += probes as u64;
                eprintln!("sweep failed: {e}");
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu_ns = cpu::threads_ns(None)? - cpu0;
    let peak = LEDGER.snapshot().peak;
    if calls.is_empty() {
        return Err("every sweep failed".to_owned());
    }
    let matched = (calls.len() * probes) as f64;
    out.metric("setup_s", stats::median(&setups));
    out.metric("ops_per_s", matched / wall);
    out.metric("latency_p50_ms", stats::median(&per_probe_ms));
    out.metric("latency_p99_ms", stats::percentile(&per_probe_ms, 0.99));
    out.metric("wall_s", stats::median(&calls));
    out.metric("peak_heap_mb", mib(peak));
    out.metric("cpu_ms_per_op", cpu_ns as f64 / matched / 1e6);

    if args.trace {
        trace(
            args,
            &cfg,
            &exec,
            &dir.0,
            probes,
            &tracks,
            stats::median(&per_probe_ms),
            &mut out,
            &mut violations,
        )?;
    }
    eprintln!(
        "{} sweeps of {probes} probes, set-ups {setups:?}",
        calls.len()
    );
    out.violations = violations;
    Ok(out)
}

/// The traced run: the set-up again stage by stage (checked
/// byte-for-byte against the library build), then for the run length
/// exact and ANN sweeps side by side with the layer calls a sweep
/// makes.
#[allow(clippy::too_many_arguments)]
fn trace(
    args: &Args,
    cfg: &ScaleConfig,
    exec: &Executor,
    built: &Path,
    probes: usize,
    tracks: &[u64],
    untraced_ms: f64,
    out: &mut Outcome,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let staged_dir = TempDir::fresh("staged")?;
    let staged_cfg = ScaleConfig {
        store_dir: staged_dir.0.clone(),
        ..cfg.clone()
    };
    featcache::reset();
    let t = Instant::now();
    let pipeline = staged_build(&mut tracer, &staged_cfg, exec)?;
    let staged_s = t.elapsed().as_secs_f64();
    if !same_files(built, &staged_dir.0)? {
        violations.push("the staged store or index differs from the library build".to_owned());
    }
    drop(staged_dir);
    let setup_stages = [
        ("routegen.generate", "routegen.generate_s"),
        ("textrep.fit", "textrep.fit_s"),
        ("textrep.transform", "textrep.transform_s"),
        ("featstore.write", "featstore.write_s"),
        ("annindex.build", "annindex.build_s"),
    ];
    for (span, metric) in setup_stages {
        out.metric(metric, tracer.total_s(span));
    }
    let stage_sum: f64 = setup_stages
        .iter()
        .map(|(span, _)| tracer.total_s(span))
        .sum();
    out.metric("trace.stage_sum_ratio", stage_sum / staged_s);
    let (store_bytes, index_bytes) = disk_bytes(built)?;
    out.metric("featstore.disk_mb", mib(store_bytes));
    out.metric("annindex.disk_mb", mib(index_bytes));

    let exact_cfg = ScaleConfig {
        ann: None,
        ..cfg.clone()
    };
    let store = FeatureStore::open(built).map_err(err)?;
    let index = AnnIndex::open(built).map_err(err)?;
    let probe_features = probe_rows(cfg, &pipeline);
    let nprobe = cfg.ann.expect("ANN settings").nprobe;
    let terrain = cfg.population.terrain();
    let (mut exact_ms, mut ann_ms, mut scanned, mut rows_read) =
        (Vec::new(), Vec::new(), 0u64, 0u64);
    let t0 = Instant::now();
    let mut op = 0u64;
    while op == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        for (ann, c) in [(false, &exact_cfg), (true, cfg)] {
            let name = if ann {
                "core.scale.sweep_ann"
            } else {
                "core.scale.sweep_exact"
            };
            let t = Instant::now();
            let report = tracer
                .span(name, op, |_| scale_sweep(c, exec))
                .map_err(err)?;
            let ms = t.elapsed().as_secs_f64() * 1e3 / probes as f64;
            if ann {
                ann_ms.push(ms)
            } else {
                exact_ms.push(ms)
            }
            if let Err(e) = check_report(&report, probes, tracks, ann) {
                violations.push(format!("traced sweep {op}: {e}"));
            }
            scanned += report.ann.as_ref().map_or(0, |info| info.rows_scanned);
        }
        tracer.span("routegen.shard0_regen", op, |_| {
            cfg.population.generate_shard(&terrain, 0)
        });
        rows_read += tracer.span("featstore.read", op, |_| -> Result<u64, String> {
            let mut row = RowBuf::default();
            let mut n = 0;
            for s in 0..store.manifest().shards.len() {
                let mut reader = store.reader(s).map_err(err)?;
                while reader.next_row(&mut row).map_err(err)? {
                    n += 1;
                }
            }
            Ok(n)
        })?;
        tracer.span("annindex.postings", op, |_| -> Result<(), String> {
            for s in 0..index.manifest().shards.len() {
                std::hint::black_box(index.postings(s).map_err(err)?);
            }
            Ok(())
        })?;
        tracer.span("annindex.top_centroids", op, |_| {
            for p in &probe_features {
                std::hint::black_box(index.codebook().top_centroids(
                    p.indices(),
                    p.values(),
                    nprobe,
                ));
            }
        });
        op += 1;
    }
    let iters = op as f64;
    out.metric("core.scale.exact_ms_per_probe", stats::median(&exact_ms));
    out.metric("core.scale.ann_ms_per_probe", stats::median(&ann_ms));
    out.metric(
        "annindex.rows_scanned_per_probe",
        scanned as f64 / (iters * probes as f64),
    );
    out.metric(
        "routegen.shard0_regen_s",
        tracer.total_s("routegen.shard0_regen") / iters,
    );
    out.metric(
        "featstore.read_rows_per_s",
        rows_read as f64 / tracer.total_s("featstore.read"),
    );
    out.metric(
        "annindex.postings_ms",
        tracer.total_s("annindex.postings") / iters * 1e3,
    );
    out.metric(
        "annindex.top_centroids_us",
        tracer.total_s("annindex.top_centroids") / (iters * probe_features.len() as f64) * 1e6,
    );
    out.metric(
        "trace.overhead_pct",
        (stats::median(&ann_ms) / untraced_ms - 1.0) * 100.0,
    );
    eprintln!(
        "traced: staged set-up {staged_s:.2} s (stages {stage_sum:.2} s), {op} traced iterations"
    );
    tracer
        .write_tsv(&crate::trace_path(args))
        .map_err(|e| format!("writing spans: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elev_core::scale::{AnnInfo, ScalePoint};

    fn report() -> ScaleReport {
        ScaleReport {
            seed: 1,
            shard_size: 1024,
            n_cols: 4096,
            store_rows: 20_000,
            probes: 240,
            points: POOL_SIZES
                .iter()
                .map(|&athletes| ScalePoint {
                    athletes,
                    tracks: athletes as u64 * 2,
                    tm1_top1: 0.4,
                    tm1_top3: 0.5,
                    tm3_top1: 0.9,
                })
                .collect(),
            ann: Some(AnnInfo {
                centroids: 64,
                nprobe: 8,
                rows_scanned: 500,
                rows_total: 4000,
                recall3: vec![1.0, 0.99, 0.97],
            }),
        }
    }

    const TRACKS: [u64; 3] = [2_000, 6_000, 20_000];

    #[test]
    fn a_consistent_report_passes() {
        assert_eq!(check_report(&report(), 240, &TRACKS, true), Ok(()));
        let mut exact = report();
        exact.ann = None;
        assert_eq!(check_report(&exact, 240, &TRACKS, false), Ok(()));
    }

    #[test]
    fn each_report_check_rejects_a_corrupted_report() {
        let bad = |f: &dyn Fn(&mut ScaleReport)| {
            let mut r = report();
            f(&mut r);
            check_report(&r, 240, &TRACKS, true).is_err()
        };
        assert!(
            bad(&|r| r.points[1].tracks += 1),
            "track count differs from the recount"
        );
        assert!(bad(&|r| r.points[2].tm1_top3 = 0.3), "top-3 below top-1");
        assert!(bad(&|r| r.points[0].tm3_top1 = 0.2), "TM-3 near chance");
        assert!(
            bad(&|r| r.ann.as_mut().unwrap().recall3[2] = 0.9),
            "recall@3 below the floor"
        );
        assert!(
            bad(&|r| r.ann.as_mut().unwrap().rows_scanned = 4000),
            "no fewer rows than a full scan"
        );
        assert!(bad(&|r| r.ann = None), "ANN section missing");
        assert!(bad(&|r| r.probes = 239), "probe count");
        assert!(
            bad(&|r| {
                r.points.pop();
            }),
            "a pool size missing"
        );
        assert!(
            check_report(&report(), 240, &TRACKS, false).is_err(),
            "ANN section in an exact sweep"
        );
    }
}
