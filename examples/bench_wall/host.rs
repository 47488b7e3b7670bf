//! The host clock: wall time, process CPU time and peak RSS of the
//! current process, and the child-process plumbing every repetition
//! runs through.

use obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct rusage` of Linux on LP64 targets: two `timeval`s, `ru_maxrss`
/// and thirteen more `long`s this program does not read.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pin this process, and every child and thread it starts from now on,
/// to the lowest-numbered CPU it is allowed to run on.
///
/// The engine lets one task run at a time, so a second core does no
/// work; it only turns each hand-off into a cross-CPU wake-up, and on a
/// small VM the cost of those swings by 4x from one run to the next
/// (`small_rma_mix` took 1.8 s or 8 s, at random, until pinned). One
/// CPU keeps the thread hand-offs the workloads exist to measure and
/// drops the part that depends on where the hypervisor put the threads.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = set
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed, read
    // only; pid 0 names the calling thread, which is the only thread of
    // this process when `main` calls this.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// User and system CPU seconds of the whole process (exited threads
/// included) and its peak resident set so far.
///
/// `getrusage` rather than `/proc/self/stat`: the kernel reports the
/// same counters through both, but `/proc` truncates them to 10 ms
/// ticks, and a tick-quantised median can read identically on every
/// run.
#[derive(Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_kb: u64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (Linux LP64: 18 longs = 144
    // bytes); RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Usage {
        user_s: secs(ru.utime),
        sys_s: secs(ru.stime),
        peak_rss_kb: ru.maxrss_kb as u64,
    }
}

/// One edge of a timed region: wall clock plus CPU clocks.
#[derive(Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub usage: Usage,
}

pub fn mark() -> Mark {
    Mark {
        at: Instant::now(),
        usage: usage(),
    }
}

/// Host cost of the region between two marks.
#[derive(Clone, Copy, Default)]
pub struct HostCost {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl HostCost {
    pub fn between(a: &Mark, b: &Mark) -> HostCost {
        HostCost {
            wall_s: b.at.duration_since(a.at).as_secs_f64(),
            user_s: b.usage.user_s - a.usage.user_s,
            sys_s: b.usage.sys_s - a.usage.sys_s,
        }
    }
}

/// Remove every `GDR_SHMEM_*` variable: `RuntimeConfig::tuned` and
/// `ShmemMachine::build` read obs level, fault plan, thresholds and
/// SLO policy from the environment, and a stray one would change what
/// is measured. Call before any thread exists.
pub fn scrub_env() {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("GDR_SHMEM_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
}

/// What one child reports: named values, the sample count behind each
/// (where it is not 1), and the reasons it considers itself incorrect.
#[derive(Default, Clone)]
pub struct Report {
    pub values: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, u64>,
    pub errors: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn put_n(&mut self, name: &str, v: f64, n: usize) {
        self.put(name, v);
        self.samples.insert(name.to_string(), n as u64);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Take over `from`'s value (and sample count) for `name`, if it has one.
    pub fn copy_from(&mut self, from: &Report, name: &str) {
        if let Some(v) = from.get(name) {
            self.put(name, v);
            if let Some(n) = from.samples.get(name) {
                self.samples.insert(name.to_string(), *n);
            }
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    /// The one line a child prints.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let mut o = json::ObjWriter::new(&mut s);
        let vals = o.raw_field("values");
        let mut vo = json::ObjWriter::new(vals);
        for (k, v) in &self.values {
            vo.num_field(k, *v);
        }
        vo.finish();
        let ns = o.raw_field("samples");
        let mut no = json::ObjWriter::new(ns);
        for (k, n) in &self.samples {
            no.u64_field(k, *n);
        }
        no.finish();
        let errs = o.raw_field("errors");
        errs.push('[');
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                errs.push(',');
            }
            json::write_str(errs, e);
        }
        errs.push(']');
        o.finish();
        s
    }

    fn from_json(line: &str) -> Result<Report, String> {
        let v = json::parse(line)?;
        let obj = |k: &str| {
            v.get(k)
                .and_then(Value::as_obj)
                .ok_or(format!("missing {k}"))
        };
        let mut r = Report::default();
        for (k, x) in obj("values")? {
            r.values
                .insert(k.clone(), x.as_f64().ok_or(format!("{k}: not a number"))?);
        }
        for (k, x) in obj("samples")? {
            r.samples.insert(
                k.clone(),
                x.as_f64().ok_or(format!("{k}: not a number"))? as u64,
            );
        }
        for e in v
            .get("errors")
            .and_then(Value::as_arr)
            .ok_or("missing errors")?
        {
            r.errors
                .push(e.as_str().ok_or("error: not a string")?.to_string());
        }
        Ok(r)
    }
}

/// Run one child of this executable to completion and parse the last
/// line of its standard output. At most one child is alive at a time:
/// the load comes from the simulator's own PE threads, not from here.
pub fn run_child(args: &[String]) -> Report {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(Report::from_json);
    match parsed {
        Ok(mut r) => {
            if !out.status.success() {
                r.fail(format!("child {args:?} exited with {}", out.status));
            }
            r
        }
        Err(e) => {
            let mut r = Report::default();
            r.fail(format!("child {args:?} ({}): {e}", out.status));
            r
        }
    }
}
