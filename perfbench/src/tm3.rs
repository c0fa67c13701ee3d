//! `experiments_tm3`: the Table V TM-3 text evaluation at quick scale,
//! run serially — `balanced_top_classes` plus `evaluate_text` for
//! C ∈ {3, 5, 7, 8, 10} × {SVM, RFC, MLP}.
//!
//! The corpus comes from a fixed seed; `--seed` drives the balanced
//! downsampling, the folds and the model seeds. An operation is one
//! whole table, computed with an empty `featcache` as a fresh
//! `table5_tm3_text` process computes it; a run computes at least two,
//! each with its own protocol seed, so that one draw of samples and
//! folds does not set the figures alone.

use crate::alloc::{mib, LEDGER};
use crate::trace::Tracer;
use crate::{cpu, stats, Args, Outcome};
use classicml::{ForestConfig, RandomForest, SvmClassifier, SvmConfig};
use datasets::split::stratified_k_fold;
use datasets::Dataset;
use elev_core::experiments::{balanced_top_classes, Corpora, ExperimentScale};
use elev_core::featcache;
use elev_core::text::{evaluate_text, TextAttackConfig, TextModel};
use evalkit::{ConfusionMatrix, FoldSummary};
use sparsemat::{CsrMatrix, FeatureMatrix, SparseVec};
use std::sync::Arc;
use std::time::Instant;
use textrep::Discretizer;

/// Table V's class counts.
const CLASSES: [usize; 5] = [3, 5, 7, 8, 10];
/// Table V's models.
const MODELS: [TextModel; 3] = [TextModel::Svm, TextModel::Rfc, TextModel::Mlp];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Tables per run, at least.
const MIN_ROUNDS: usize = 2;
/// Seed of the corpus: the experiment's world is fixed, and `--seed`
/// picks the balanced samples, the folds and the model seeds.
const WORLD_SEED: u64 = 42;

/// The evaluation settings `table5_tm3` uses at `scale`.
fn text_config(scale: &ExperimentScale, seed: u64) -> TextAttackConfig {
    TextAttackConfig {
        folds: scale.folds,
        mlp_epochs: scale.mlp_epochs,
        seed,
        ..TextAttackConfig::default()
    }
}

/// Checks one (C, model) evaluation of a `samples`-sample balanced
/// dataset against the accuracy reported for it: the pooled matrix has
/// C classes, counts every sample once and is the sum of the fold
/// matrices, and the accuracy recomputed from the fold matrices' counts
/// equals `reported`.
fn check_summary(
    summary: &FoldSummary,
    reported: f64,
    classes: usize,
    samples: usize,
) -> Result<(), String> {
    let pooled = &summary.pooled;
    if pooled.n_classes() != classes {
        return Err(format!(
            "pooled matrix has {} classes, expected {classes}",
            pooled.n_classes()
        ));
    }
    if pooled.total() != samples {
        return Err(format!(
            "pooled matrix counts {} samples, dataset has {samples}",
            pooled.total()
        ));
    }
    let Some(first) = summary.folds.first() else {
        return Err("no folds".to_owned());
    };
    if summary
        .folds
        .iter()
        .skip(1)
        .fold(first.clone(), |acc, m| acc.merged(m))
        != *pooled
    {
        return Err("pooled matrix is not the sum of the fold matrices".to_owned());
    }
    let n = summary.folds.len() as f64;
    let mut recomputed = 0.0;
    for m in &summary.folds {
        let correct: usize = (0..m.n_classes()).map(|c| m.count(c, c)).sum();
        recomputed += correct as f64 / m.total().max(1) as f64 / n;
    }
    if (recomputed - reported).abs() > 1e-9 {
        return Err(format!(
            "reported accuracy {reported}, the fold matrices give {recomputed}"
        ));
    }
    Ok(())
}

/// The best model must beat the 1/C chance rate.
fn check_beats_chance(classes: usize, accuracies: &[f64]) -> Result<(), String> {
    let best = accuracies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if best > 1.0 / classes as f64 {
        Ok(())
    } else {
        Err(format!(
            "C={classes}: best accuracy {best} does not beat chance {}",
            1.0 / classes as f64
        ))
    }
}

/// One table's results.
struct Round {
    wall_s: f64,
    pooled: Vec<ConfusionMatrix>,
}

/// One untraced table.
fn round(
    city: &Dataset,
    scale: &ExperimentScale,
    seed: u64,
    violations: &mut Vec<String>,
) -> Round {
    featcache::reset();
    let cfg = text_config(scale, seed);
    let mut pooled = Vec::new();
    let t0 = Instant::now();
    for c in CLASSES {
        let ds = balanced_top_classes(city, c, seed);
        let mut accuracies = Vec::new();
        for model in MODELS {
            let summary = evaluate_text(&ds, Discretizer::mined(), model, &cfg);
            let accuracy = summary.outcome().accuracy;
            if let Err(e) = check_summary(&summary, accuracy, c, ds.len()) {
                violations.push(format!("C={c} {model}: {e}"));
            }
            accuracies.push(accuracy);
            pooled.push(summary.pooled);
        }
        if let Err(e) = check_beats_chance(c, &accuracies) {
            violations.push(e);
        }
    }
    Round {
        wall_s: t0.elapsed().as_secs_f64(),
        pooled,
    }
}

/// A fitted Table V model.
enum Fitted {
    Svm(SvmClassifier),
    Rfc(RandomForest),
    Mlp(neuralnet::Sequential),
}

/// `evaluate_text` rebuilt from its public parts with a span around
/// each stage: featurize, then per fold gather, fit and predict.
fn staged_evaluation(
    t: &mut Tracer,
    op: u64,
    ds: &Dataset,
    model: TextModel,
    cfg: &TextAttackConfig,
    forest_peak: &mut u64,
) -> FoldSummary {
    let signals: Vec<Vec<f64>> = ds.samples().iter().map(|s| s.elevation.clone()).collect();
    let features: Vec<Arc<SparseVec>> = t.span("textrep.featurize", op, |_| {
        let pipeline =
            featcache::pipeline_for(&signals, Discretizer::mined(), cfg.ngram, cfg.selection);
        signals.iter().map(|s| pipeline.bow(s)).collect()
    });
    let gather = |rows: &[usize]| CsrMatrix::from_rows(rows.iter().map(|&i| features[i].as_ref()));
    let labels = ds.labels();
    let folds = stratified_k_fold(&labels, cfg.folds, cfg.seed);
    let mut matrices = Vec::with_capacity(folds.len());
    for (fold, (train, test)) in folds.iter().enumerate() {
        let xt = t.span("core.text.gather", op, |_| gather(train));
        let yt: Vec<u32> = train.iter().map(|&i| labels[i]).collect();
        let seed = exec::mix_seed(cfg.seed ^ 0x7E47, fold as u64);
        let fitted = match model {
            TextModel::Svm => {
                let svm_cfg = SvmConfig {
                    epochs: cfg.svm_epochs,
                    lambda: cfg.svm_lambda,
                };
                Fitted::Svm(t.span("classicml.svm.fit", op, |_| {
                    SvmClassifier::fit_sparse(&xt, &yt, &svm_cfg, seed)
                }))
            }
            TextModel::Rfc => {
                let forest_cfg = ForestConfig {
                    n_trees: cfg.rfc_trees,
                    ..ForestConfig::default()
                };
                let x = FeatureMatrix::Sparse(xt);
                let (m, above) = t.span("classicml.forest.fit", op, |_| {
                    LEDGER.peak_above(|| RandomForest::fit_matrix(&x, &yt, &forest_cfg, seed))
                });
                *forest_peak = (*forest_peak).max(above);
                Fitted::Rfc(m)
            }
            TextModel::Mlp => {
                let n_classes = yt.iter().copied().max().expect("non-empty fold") as usize + 1;
                Fitted::Mlp(t.span("neuralnet.mlp.fit", op, |_| {
                    let mut net = neuralnet::models::mlp(xt.n_cols(), 100, n_classes.max(2), seed);
                    let train_cfg = neuralnet::TrainConfig {
                        epochs: cfg.mlp_epochs,
                        lr: cfg.mlp_lr,
                        seed,
                        ..Default::default()
                    };
                    neuralnet::train_sparse(&mut net, &xt, &yt, &train_cfg);
                    net
                }))
            }
        };
        let xs = t.span("core.text.gather", op, |_| gather(test));
        let preds = match fitted {
            Fitted::Svm(m) => t.span("classicml.svm.predict", op, |_| m.predict_sparse(&xs)),
            Fitted::Rfc(m) => {
                let xs = FeatureMatrix::Sparse(xs);
                t.span("classicml.forest.predict", op, |_| {
                    m.predict(&xs.to_dense_rows())
                })
            }
            Fitted::Mlp(mut net) => {
                t.span("neuralnet.mlp.predict", op, |_| net.predict_sparse(&xs))
            }
        };
        let truth: Vec<u32> = test.iter().map(|&i| labels[i]).collect();
        matrices.push(ConfusionMatrix::from_predictions(
            &truth,
            &preds,
            ds.n_classes(),
        ));
    }
    let pooled = matrices
        .iter()
        .skip(1)
        .fold(matrices[0].clone(), |acc, m| acc.merged(m));
    FoldSummary {
        folds: matrices,
        pooled,
    }
}

/// Runs the experiment workload.
///
/// # Errors
///
/// When the process's CPU time cannot be read or the spans cannot be
/// written.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scale = ExperimentScale::quick();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut city = None;
    for _ in 0..SETUPS {
        drop(city.take());
        featcache::reset();
        let t = Instant::now();
        let corpora = Corpora::generate(WORLD_SEED, &scale);
        setups.push(t.elapsed().as_secs_f64());
        city = Some(corpora.city);
    }
    let city = city.expect("at least one set-up");

    let mut violations = Vec::new();
    let mut rounds = Vec::new();
    let mut first_pooled = None;
    let cpu0 = cpu::threads_ns(None)?;
    LEDGER.reset_peak();
    let t0 = Instant::now();
    while rounds.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < args.seconds {
        let seed = exec::mix_seed(args.seed, rounds.len() as u64);
        let r = round(&city, &scale, seed, &mut violations);
        rounds.push(r.wall_s);
        first_pooled.get_or_insert(r.pooled);
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu_ns = cpu::threads_ns(None)? - cpu0;
    let peak = LEDGER.snapshot().peak;

    let n = rounds.len() as f64;
    let round_ms: Vec<f64> = rounds.iter().map(|s| s * 1e3).collect();
    let mut out = Outcome {
        attempted: rounds.len() as u64,
        ..Outcome::default()
    };
    out.metric("setup_s", stats::median(&setups));
    out.metric("ops_per_s", n / wall);
    out.metric("latency_p50_ms", stats::percentile(&round_ms, 0.50));
    out.metric("latency_p99_ms", stats::percentile(&round_ms, 0.99));
    out.metric("wall_s", stats::median(&rounds));
    out.metric("peak_heap_mb", mib(peak));
    out.metric("cpu_ms_per_op", cpu_ns as f64 / n / 1e6);

    if args.trace {
        featcache::reset();
        let seed = exec::mix_seed(args.seed, 0);
        let cfg = text_config(&scale, seed);
        let mut tracer = Tracer::new();
        let mut forest_peak = 0u64;
        let first_pooled = first_pooled.expect("one round ran");
        let t = Instant::now();
        let mut op = 0u64;
        for c in CLASSES {
            let ds = balanced_top_classes(&city, c, seed);
            for model in MODELS {
                let summary =
                    staged_evaluation(&mut tracer, op, &ds, model, &cfg, &mut forest_peak);
                if summary.pooled != first_pooled[op as usize] {
                    violations.push(format!(
                        "C={c} {model}: staged evaluation differs from evaluate_text"
                    ));
                }
                op += 1;
            }
        }
        let traced_wall = t.elapsed().as_secs_f64();
        let stages = [
            ("textrep.featurize", "textrep.featurize_s"),
            ("core.text.gather", "core.text.gather_s"),
            ("classicml.svm.fit", "classicml.svm.fit_s"),
            ("classicml.forest.fit", "classicml.forest.fit_s"),
            ("neuralnet.mlp.fit", "neuralnet.mlp.fit_s"),
            ("classicml.svm.predict", "classicml.svm.predict_s"),
            ("classicml.forest.predict", "classicml.forest.predict_s"),
            ("neuralnet.mlp.predict", "neuralnet.mlp.predict_s"),
        ];
        for (span, metric) in stages {
            out.metric(metric, tracer.total_s(span));
        }
        let stage_sum: f64 = stages.iter().map(|(span, _)| tracer.total_s(span)).sum();
        out.metric("classicml.forest.fit_alloc_mb", mib(forest_peak));
        out.metric("trace.stage_sum_ratio", stage_sum / traced_wall);
        out.metric(
            "trace.overhead_pct",
            (traced_wall / rounds[0] - 1.0) * 100.0,
        );
        eprintln!(
            "traced round {traced_wall:.2} s, stages {stage_sum:.2} s, untraced {:.2} s",
            rounds[0]
        );
        tracer
            .write_tsv(&crate::trace_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    eprintln!("rounds {rounds:?}, set-ups {setups:?}");
    out.violations = violations;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-class, 2-fold summary with 12 samples.
    fn summary() -> FoldSummary {
        let a = ConfusionMatrix::from_predictions(&[0, 1, 2, 0, 1, 2], &[0, 1, 2, 0, 2, 2], 3);
        let b = ConfusionMatrix::from_predictions(&[0, 1, 2, 0, 1, 2], &[0, 1, 1, 1, 1, 2], 3);
        FoldSummary {
            pooled: a.merged(&b),
            folds: vec![a, b],
        }
    }

    #[test]
    fn a_consistent_summary_passes() {
        let s = summary();
        let acc = s.outcome().accuracy;
        assert!((acc - (5.0 / 6.0 + 4.0 / 6.0) / 2.0).abs() < 1e-12);
        assert!(check_summary(&s, acc, 3, 12).is_ok());
        assert!(check_beats_chance(3, &[0.2, acc]).is_ok());
    }

    #[test]
    fn each_evaluation_check_rejects_a_corrupted_summary() {
        let acc = summary().outcome().accuracy;
        // The pooled matrix does not cover the dataset.
        assert!(check_summary(&summary(), acc, 3, 13).is_err());
        // The class count is wrong.
        assert!(check_summary(&summary(), acc, 4, 12).is_err());
        // The pooled matrix is not the sum of its folds.
        let mut s = summary();
        s.pooled = s.folds[0].merged(&s.folds[0]);
        assert!(check_summary(&s, acc, 3, 12).is_err());
        // The reported accuracy is not the one the folds give.
        assert!(check_summary(&summary(), acc + 0.01, 3, 12).is_err());
        // No model beats chance.
        assert!(check_beats_chance(3, &[0.30, 1.0 / 3.0]).is_err());
    }
}
