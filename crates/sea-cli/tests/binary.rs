//! End-to-end tests through the compiled `sea-solve` binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_sea-solve")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sea-solve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write(dir: &Path, name: &str, content: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

#[test]
fn fixed_solve_round_trips_through_the_binary() {
    let dir = tmpdir("fixed");
    write(&dir, "m.csv", "10,4,6\n3,12,5\n7,2,11\n");
    write(&dir, "s.csv", "24,22,24\n");
    write(&dir, "d.csv", "25,20,25\n");
    let out = dir.join("x.csv");
    let status = Command::new(bin())
        .args([
            "fixed",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .status()
        .expect("binary runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&out).unwrap();
    let rows: Vec<Vec<f64>> = text
        .lines()
        .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
        .collect();
    let row_sum: f64 = rows[0].iter().sum();
    assert!((row_sum - 24.0).abs() < 1e-6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_is_printed_without_arguments() {
    let output = Command::new(bin()).output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("sea-solve fixed"));
}

#[test]
fn bad_flags_exit_with_code_2_and_usage() {
    let output = Command::new(bin())
        .args(["fixed", "--nonsense"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("error:"));
    assert!(err.contains("USAGE"));
}

/// `--simd` and `--precision` were removed with the vectorized and f32
/// kernels, and `--trace` with the in-driver trace recorder (an
/// `--observe` log carries the same trace): a script still passing them
/// gets a usage error, not a solve that silently ignores the flag.
#[test]
fn removed_flags_are_refused() {
    let dir = tmpdir("retired");
    write(&dir, "m.csv", "10,4\n3,12\n");
    write(&dir, "s.csv", "14,15\n");
    write(&dir, "d.csv", "13,16\n");
    let fixed = |extra: &[&str]| {
        Command::new(bin())
            .args([
                "fixed",
                "--matrix",
                dir.join("m.csv").to_str().unwrap(),
                "--row-totals",
                dir.join("s.csv").to_str().unwrap(),
                "--col-totals",
                dir.join("d.csv").to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("binary runs")
    };
    // Every spelling ran a solve before its flag was removed; the
    // precision one needed sort-scan to pass the old parser.
    let trace = dir.join("trace.json");
    for (extra, flag) in [
        (&["--simd", "auto"][..], "--simd"),
        (
            &["--kernel", "sortscan", "--precision", "f32-mixed"][..],
            "--precision",
        ),
        (&["--trace", trace.to_str().unwrap()][..], "--trace"),
    ] {
        let output = fixed(extra);
        assert_eq!(output.status.code(), Some(2), "{extra:?}");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        assert!(output.stdout.is_empty(), "{extra:?} must not solve");
    }
    assert!(!trace.exists(), "--trace must not write a file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn solver_failures_exit_with_their_documented_code() {
    let dir = tmpdir("fail");
    write(&dir, "m.csv", "1,2\n3,4\n");
    write(&dir, "s.csv", "4,6\n");
    write(&dir, "d.csv", "5,9\n"); // inconsistent grand total
    let output = Command::new(bin())
        .args([
            "fixed",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    // InconsistentTotals has its own documented exit code.
    assert_eq!(output.status.code(), Some(12));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("inconsistent"));

    // An I/O failure (missing file) stays on the generic code 1.
    let output = Command::new(bin())
        .args(["info", "--matrix", "/nonexistent/m.csv"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A small problem driven to a hard (tiny-epsilon) target so supervised
/// stops can be exercised deterministically.
fn hard_problem_args(dir: &Path) -> Vec<String> {
    write(dir, "m.csv", "10,4,6\n3,12,5\n7,2,11\n");
    write(dir, "s.csv", "24,22,24\n");
    write(dir, "d.csv", "25,20,25\n");
    [
        "fixed",
        "--matrix",
        dir.join("m.csv").to_str().unwrap(),
        "--row-totals",
        dir.join("s.csv").to_str().unwrap(),
        "--col-totals",
        dir.join("d.csv").to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn iteration_cap_emits_partial_estimate_with_certificate() {
    let dir = tmpdir("itercap");
    let mut argv = hard_problem_args(&dir);
    // Unattainable tolerance + tiny cap: the solve must stop early.
    argv.extend(["--epsilon", "1e-300", "--max-iterations", "3"].map(String::from));
    let output = Command::new(bin())
        .args(&argv)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(5), "iteration_cap exit code");
    let out = String::from_utf8_lossy(&output.stdout);
    // Partial estimate: three CSV rows plus the honesty trailer.
    assert!(
        out.contains("# stopped: iteration_cap after 3 iterations"),
        "{out}"
    );
    assert!(out.contains("# kkt: stationarity"), "{out}");
    assert!(out.lines().filter(|l| !l.starts_with('#')).count() >= 3);
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("stopped early: iteration_cap"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deadline_expiry_emits_partial_estimate() {
    let dir = tmpdir("deadline");
    let mut argv = hard_problem_args(&dir);
    // An unattainable tolerance with a microscopic wall-clock budget.
    argv.extend(["--epsilon", "1e-300", "--deadline", "1e-6"].map(String::from));
    let output = Command::new(bin())
        .args(&argv)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(6), "deadline_exceeded exit code");
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.contains("# stopped: deadline_exceeded"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 30×25 fixed-totals problem with priors staggered over seven values
/// and jittered, whose solve takes enough iterations that the default
/// kernel's warm start matters: resuming it without restoring λ changes
/// the estimate's last bits.
fn heterogeneous_problem_args(dir: &Path) -> (Vec<String>, f64) {
    let (m, n) = (30, 25);
    let prior = |i: usize, j: usize| {
        let jitter = 0.9 + 0.2 * ((i * 31 + j * 17) % 13) as f64 / 12.0;
        (1.0 + ((i * n + j) % 7) as f64) * jitter
    };
    let rows: Vec<Vec<f64>> = (0..m)
        .map(|i| (0..n).map(|j| prior(i, j)).collect())
        .collect();
    let s0: Vec<f64> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| r.iter().sum::<f64>() * (0.9 + 0.2 * ((i * 7) % 11) as f64 / 10.0))
        .collect();
    let cols: Vec<f64> = (0..n).map(|j| rows.iter().map(|r| r[j]).sum()).collect();
    let scale = s0.iter().sum::<f64>() / cols.iter().sum::<f64>();
    let line = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let matrix: String = rows.iter().map(|r| line(r) + "\n").collect();
    write(dir, "m.csv", &matrix);
    write(dir, "s.csv", &(line(&s0) + "\n"));
    let d0: Vec<f64> = cols.iter().map(|c| c * scale).collect();
    write(dir, "d.csv", &(line(&d0) + "\n"));
    let args = [
        "fixed",
        "--matrix",
        dir.join("m.csv").to_str().unwrap(),
        "--row-totals",
        dir.join("s.csv").to_str().unwrap(),
        "--col-totals",
        dir.join("d.csv").to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    (args, s0[0])
}

#[test]
fn checkpoint_then_resume_completes_the_solve() {
    let dir = tmpdir("resume");
    let ck = dir.join("state.ckpt");
    let (problem, s0_first) = heterogeneous_problem_args(&dir);
    let run = |extra: &[&str]| {
        let mut argv = problem.clone();
        argv.extend(
            ["--epsilon", "1e-9"]
                .iter()
                .chain(extra)
                .map(|s| s.to_string()),
        );
        Command::new(bin())
            .args(&argv)
            .output()
            .expect("binary runs")
    };

    // Phase 1: stop after 4 iterations, checkpointing every iteration.
    let ck_arg = ck.to_str().unwrap();
    let output = run(&[
        "--max-iterations",
        "4",
        "--checkpoint",
        ck_arg,
        "--checkpoint-every",
        "1",
    ]);
    assert_eq!(output.status.code(), Some(5));
    assert!(ck.exists(), "checkpoint file written");
    assert!(!dir.join("state.ckpt.tmp").exists(), "no tmp residue");

    // Phase 2: resume from the checkpoint and run to convergence.
    let out_csv = dir.join("x.csv");
    let output = run(&["--resume", ck_arg, "--out", out_csv.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0), "resumed solve converges");
    let text = std::fs::read_to_string(&out_csv).unwrap();
    let rows: Vec<Vec<f64>> = text
        .lines()
        .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
        .collect();
    let row_sum: f64 = rows[0].iter().sum();
    assert!((row_sum - s0_first).abs() < 1e-6 * s0_first);

    // The resumed estimate is byte-identical to an uninterrupted solve's.
    let full_csv = dir.join("full.csv");
    let output = run(&["--out", full_csv.to_str().unwrap()]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "uninterrupted solve converges"
    );
    assert_eq!(
        std::fs::read(&full_csv).unwrap(),
        text.as_bytes(),
        "resumed --out differs from the uninterrupted run's"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_garbage_checkpoints() {
    let dir = tmpdir("badck");
    let ck = write(&dir, "bogus.ckpt", "not a checkpoint\n");
    let mut argv = hard_problem_args(&dir);
    argv.extend(["--resume".to_string(), ck.to_str().unwrap().to_string()]);
    let output = Command::new(bin())
        .args(&argv)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("bogus.ckpt"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(unix)]
#[test]
fn sigint_yields_partial_estimate_and_exit_130() {
    let dir = tmpdir("sigint");
    // A bigger matrix with an unattainable tolerance and a huge iteration
    // budget: the solve runs until interrupted.
    let n = 60;
    let m: String = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| format!("{}", 1.0 + ((i * n + j) % 17) as f64))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n");
    let matrix = write(&dir, "m.csv", &(m + "\n"));
    let child = Command::new(bin())
        .args([
            "sam",
            "--matrix",
            matrix.to_str().unwrap(),
            "--epsilon",
            "1e-300",
            "--max-iterations",
            "500000000",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // Give the solve time to start, then deliver SIGINT.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    // wait_with_output drains the pipes while waiting, so a partial
    // estimate larger than the pipe buffer cannot deadlock the child.
    let output = child.wait_with_output().expect("child exits");
    assert_eq!(output.status.code(), Some(130), "SIGINT exit code");
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.contains("# stopped: cancelled"), "{out}");
    assert!(out.contains("# kkt: stationarity"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A two-instance manifest sharing one warm-start family.
fn batch_manifest(dir: &Path) -> PathBuf {
    write(
        dir,
        "jobs.jsonl",
        "{\"id\":\"q1\",\"family\":\"trade\",\"class\":\"fixed\",\
          \"matrix\":[[10,4,6],[3,12,5],[7,2,11]],\
          \"row_totals\":[24,22,24],\"col_totals\":[25,20,25]}\n\
         {\"id\":\"q2\",\"family\":\"trade\",\"class\":\"fixed\",\
          \"matrix\":[[10,4,6],[3,12,5],[7,2,11]],\
          \"row_totals\":[24,22,24],\"col_totals\":[25,20,25]}\n",
    )
}

#[test]
fn batch_solves_a_manifest_through_the_binary() {
    let dir = tmpdir("batch");
    let manifest = batch_manifest(&dir);
    let output = Command::new(bin())
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--parallel",
            "outer:2",
            "--epsilon",
            "1e-9",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(0), "batch converges");
    let out = String::from_utf8_lossy(&output.stdout);
    // One result line per instance plus the summary trailer.
    assert_eq!(out.lines().filter(|l| l.starts_with('{')).count(), 2);
    assert!(out.contains("\"id\":\"q1\""), "{out}");
    assert!(out.contains("# batch: 2 instances, 2 converged"), "{out}");
    // Same process, one batch: the shared family resolves against the
    // empty snapshot, so both instances report a miss.
    assert_eq!(out.matches("\"cache\":\"miss\"").count(), 2, "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_stops_exit_with_the_stop_reason_code() {
    let dir = tmpdir("batch-cap");
    let manifest = batch_manifest(&dir);
    let output = Command::new(bin())
        .args([
            "batch",
            manifest.to_str().unwrap(),
            "--epsilon",
            "1e-300",
            "--max-iterations",
            "3",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(5), "iteration_cap exit code");
    let out = String::from_utf8_lossy(&output.stdout);
    // The per-instance report still lands on stdout as partial output.
    assert_eq!(
        out.matches("\"stop\":\"iteration_cap\"").count(),
        2,
        "{out}"
    );
    assert!(out.contains("# batch: 2 instances, 0 converged"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_without_a_manifest_is_a_usage_error() {
    let output = Command::new(bin())
        .args(["batch"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("manifest"), "{err}");
}

#[test]
fn stdout_output_when_no_out_flag() {
    let dir = tmpdir("stdout");
    write(&dir, "m.csv", "1,2\n3,4\n");
    write(&dir, "s.csv", "4,6\n");
    write(&dir, "d.csv", "5,5\n");
    let output = Command::new(bin())
        .args([
            "fixed",
            "--matrix",
            dir.join("m.csv").to_str().unwrap(),
            "--row-totals",
            dir.join("s.csv").to_str().unwrap(),
            "--col-totals",
            dir.join("d.csv").to_str().unwrap(),
            "--weights",
            "unit",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    // Two CSV rows plus a trailing comment line.
    assert_eq!(text.lines().count(), 3);
    assert!(text.lines().last().unwrap().starts_with('#'));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_solve_still_writes_its_sinks() {
    let dir = tmpdir("failsinks");
    // Row 0 has no structural support but a positive total.
    write(&dir, "m.csv", "0,0\n3,4\n");
    write(&dir, "s.csv", "5,6\n");
    write(&dir, "d.csv", "5,6\n");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let output = Command::new(bin())
        .args([
            "fixed",
            "--matrix",
            &path("m.csv"),
            "--row-totals",
            &path("s.csv"),
            "--col-totals",
            &path("d.csv"),
            "--structural-zeros",
            "--observe",
            &path("ev.jsonl"),
            "--metrics",
            &path("m.prom"),
            "--trace-spans",
            &path("t.json"),
            "--flamegraph",
            &path("f.txt"),
        ])
        .output()
        .expect("binary runs");
    // InfeasibleSubproblem keeps its documented exit code.
    assert_eq!(output.status.code(), Some(16));
    let events = std::fs::read_to_string(dir.join("ev.jsonl")).unwrap();
    assert!(events.contains("solve_start"), "{events}");
    let metrics = std::fs::read_to_string(dir.join("m.prom")).unwrap();
    assert!(
        metrics.lines().any(|l| l.starts_with("sea_solves_total")),
        "{metrics}"
    );
    let trace = std::fs::read_to_string(dir.join("t.json")).unwrap();
    let doc = sea_observe::json::parse(&trace).expect("trace is JSON");
    sea_observe::parse_chrome_trace(&doc).expect("trace re-parses");
    assert!(dir.join("f.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn progress_line_ends_on_the_last_check() {
    let dir = tmpdir("progress");
    let n = 60;
    let matrix: String = (0..n)
        .map(|i| {
            let row: Vec<String> = (0..n)
                .map(|j| format!("{}", 1 + (7 * i + 13 * j) % 17))
                .collect();
            row.join(",") + "\n"
        })
        .collect();
    write(&dir, "m.csv", &matrix);
    let run = |progress: bool| {
        let mut cmd = Command::new(bin());
        cmd.args(["sam", "--matrix", dir.join("m.csv").to_str().unwrap()]);
        if progress {
            cmd.arg("--progress");
        }
        cmd.output().expect("binary runs")
    };
    let plain = run(false);
    let shown = run(true);
    assert!(plain.status.success() && shown.status.success());
    assert_eq!(shown.stdout, plain.stdout, "--progress leaves stdout alone");
    let stdout = String::from_utf8_lossy(&shown.stdout);
    let converged = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# converged in "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("converged trailer");
    let stderr = String::from_utf8_lossy(&shown.stderr);
    let last = stderr.rsplit('\r').next().unwrap_or_default();
    let iteration = last
        .strip_prefix("# iter")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no progress line in {stderr:?}"));
    assert_eq!(iteration, converged, "final progress segment {last:?}");
    assert!(last.ends_with('\n'), "the line is terminated");
    std::fs::remove_dir_all(&dir).unwrap();
}
