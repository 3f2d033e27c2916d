//! # pdb-fault
//!
//! A deterministic fault-injection harness for the query governor.
//!
//! Execution code calls [`probe`] at named injection points (the governor's
//! checkpoints). When the `fault-inject` cargo feature is **off** — the
//! default for every production build — [`probe`] is an inlined `None` and
//! the whole module compiles down to nothing. With the feature **on**, an
//! installed [`FaultPlan`] fires [`FaultAction`]s at matching
//! `(site, index)` pairs:
//!
//! * [`FaultAction::Panic`] — `panic!` inside the worker, exercising the
//!   `catch_unwind` isolation in `pdb-par`;
//! * [`FaultAction::Cancel`] — trip the cooperative cancellation token;
//! * [`FaultAction::Budget`] — report memory-budget exhaustion;
//! * [`FaultAction::Slow`] — sleep the worker, for deadline tests.
//!
//! **Every fault is one-shot**: it fires at most once per installation, so
//! an interrupted run followed by an immediate re-run of the same query is
//! indistinguishable from an uninterrupted run — the property the injection
//! proptests lean on (`Err` first, bitwise-identical result second, no
//! clearing required in between).
//!
//! Plans come from three places:
//!
//! * [`install`] — programmatic, used by the test suites;
//! * the `SPROUT_FAULTS` environment variable (read once, lazily, on the
//!   first probe if nothing was installed), spec syntax
//!   `action@site:index[:ms][;...]`, e.g.
//!   `panic@join.probe:3;slow@conf.bag:0:25`;
//! * [`FaultPlan::random`] — seeded through the workspace `rand` shim
//!   (xoshiro256**), so property tests can draw reproducible fault mixes
//!   from a single `u64` seed.

#[cfg(feature = "fault-inject")]
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(feature = "fault-inject")]
use std::sync::{Arc, Mutex, Once};

/// Environment variable holding a fault-plan spec (`action@site:index[:ms]`
/// entries separated by `;`). Only consulted when the `fault-inject` feature
/// is compiled in and no plan was installed programmatically.
pub const FAULTS_ENV: &str = "SPROUT_FAULTS";

/// The named injection sites the workspace probes. Sites are plain strings —
/// the harness matches whatever the probes pass — but keeping the catalogue
/// here lets sweeps enumerate every site without grepping the executors.
pub mod sites {
    /// Engine checkpoints (PR 6): morsel/chunk/bag boundaries of the
    /// governed relational pipeline and confidence operator.
    pub const ENGINE: &[&str] = &[
        "scan.morsel",
        "scan.write",
        "scan.chunk",
        "scan.gather",
        "join.probe",
        "project.write",
        "eager.aggregate",
        "conf.bag",
        "conf.fold",
        "conf.bounds",
    ];

    /// Server connection accept: fires per accepted connection, before the
    /// request is read. Index = connection sequence number.
    pub const SERVER_ACCEPT: &str = "server.accept";
    /// Server request parse: fires after the HTTP request is decoded,
    /// before dispatch. Index = request sequence number on the connection.
    pub const SERVER_PARSE: &str = "server.parse";
    /// Server admission: fires while the query holds (or is denied) its
    /// admission slot, before execution. Index = request sequence number.
    pub const SERVER_ADMIT: &str = "server.admit";
    /// Server execution: fires between admission and the governed library
    /// call. Index = request sequence number.
    pub const SERVER_EXEC: &str = "server.exec";
    /// Server answer streaming: fires per streamed answer row (index =
    /// row rank), after response headers are on the wire.
    pub const SERVER_STREAM: &str = "server.stream";

    /// Every server lifecycle site, in request order — the fault sweep
    /// iterates this.
    pub const SERVER: &[&str] = &[
        SERVER_ACCEPT,
        SERVER_PARSE,
        SERVER_ADMIT,
        SERVER_EXEC,
        SERVER_STREAM,
    ];
}

/// What an injection point does when its fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the worker (exercises panic isolation).
    Panic,
    /// Trip the cooperative cancellation token.
    Cancel,
    /// Report memory-budget exhaustion.
    Budget,
    /// Sleep the worker for the given number of milliseconds (exercises
    /// deadline enforcement), then continue normally.
    Slow(u64),
}

/// One named injection point: fire `action` the first time execution reaches
/// checkpoint `index` of `site`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Checkpoint site name, e.g. `"join.probe"` or `"conf.bag"`.
    pub site: String,
    /// Checkpoint index within the site (morsel k, bag j, chunk i, ...).
    pub index: usize,
    /// What to do when execution reaches the point.
    pub action: FaultAction,
}

impl Fault {
    /// Creates a fault.
    pub fn new(action: FaultAction, site: impl Into<String>, index: usize) -> Self {
        Fault {
            site: site.into(),
            index,
            action,
        }
    }
}

/// A set of one-shot faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan firing the given faults (each at most once).
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// The faults in the plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Parses a `SPROUT_FAULTS` spec: `;`-separated entries of the form
    /// `action@site:index` (`panic`, `cancel`, `budget`) or
    /// `slow@site:index:millis`.
    ///
    /// # Errors
    /// Returns a description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (action, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry `{entry}` is missing `@`"))?;
            let mut parts = rest.split(':');
            let site = parts
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("fault entry `{entry}` is missing a site"))?;
            let index: usize = parts
                .next()
                .ok_or_else(|| format!("fault entry `{entry}` is missing an index"))?
                .parse()
                .map_err(|_| format!("fault entry `{entry}` has a malformed index"))?;
            let action = match action {
                "panic" => FaultAction::Panic,
                "cancel" => FaultAction::Cancel,
                "budget" => FaultAction::Budget,
                "slow" => {
                    let ms: u64 = parts
                        .next()
                        .ok_or_else(|| format!("slow fault `{entry}` is missing millis"))?
                        .parse()
                        .map_err(|_| format!("slow fault `{entry}` has malformed millis"))?;
                    FaultAction::Slow(ms)
                }
                other => return Err(format!("unknown fault action `{other}` in `{entry}`")),
            };
            if parts.next().is_some() {
                return Err(format!("fault entry `{entry}` has trailing fields"));
            }
            faults.push(Fault::new(action, site, index));
        }
        Ok(FaultPlan::new(faults))
    }

    /// Renders the plan back into `SPROUT_FAULTS` spec syntax
    /// (`parse(render(p)) == p`).
    pub fn render(&self) -> String {
        self.faults
            .iter()
            .map(|f| match f.action {
                FaultAction::Panic => format!("panic@{}:{}", f.site, f.index),
                FaultAction::Cancel => format!("cancel@{}:{}", f.site, f.index),
                FaultAction::Budget => format!("budget@{}:{}", f.site, f.index),
                FaultAction::Slow(ms) => format!("slow@{}:{}:{}", f.site, f.index, ms),
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// A reproducible single-fault plan drawn from `seed`: picks one of
    /// `sites`, an index below `max_index` and a non-`Slow` action through
    /// the workspace `rand` shim. The same seed always yields the same
    /// plan, which is how the injection proptests enumerate fault mixes.
    pub fn random(seed: u64, sites: &[&str], max_index: usize) -> Self {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        if sites.is_empty() {
            return FaultPlan::default();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let site = sites[rng.gen_range(0..sites.len())];
        let index = rng.gen_range(0..max_index.max(1));
        let action = match rng.gen_range(0..3u32) {
            0 => FaultAction::Panic,
            1 => FaultAction::Cancel,
            _ => FaultAction::Budget,
        };
        FaultPlan::new(vec![Fault::new(action, site, index)])
    }
}

#[cfg(feature = "fault-inject")]
mod active {
    use super::*;

    /// An installed plan plus one fired-flag per fault (one-shot semantics).
    struct Installed {
        plan: FaultPlan,
        fired: Vec<AtomicBool>,
    }

    static PLAN: Mutex<Option<Arc<Installed>>> = Mutex::new(None);
    /// Fast path: skip the mutex entirely while no plan is armed.
    static ARMED: AtomicBool = AtomicBool::new(false);
    static ENV_INIT: Once = Once::new();

    fn set(plan: Option<FaultPlan>) {
        let installed = plan.map(|plan| {
            let fired = plan
                .faults()
                .iter()
                .map(|_| AtomicBool::new(false))
                .collect();
            Arc::new(Installed { plan, fired })
        });
        ARMED.store(installed.is_some(), Ordering::SeqCst);
        *PLAN.lock().expect("fault plan lock") = installed;
    }

    /// Installs `plan`, replacing any previous one and re-arming every fault.
    pub fn install(plan: FaultPlan) {
        // Make sure a later lazy env read cannot clobber the explicit plan.
        ENV_INIT.call_once(|| {});
        set(Some(plan));
    }

    /// Removes the installed plan; subsequent probes are no-ops.
    pub fn clear() {
        ENV_INIT.call_once(|| {});
        set(None);
    }

    /// Installs the plan described by `SPROUT_FAULTS`, if set and
    /// well-formed. Returns whether a plan was installed.
    pub fn install_from_env() -> bool {
        match std::env::var(FAULTS_ENV)
            .ok()
            .as_deref()
            .map(FaultPlan::parse)
        {
            Some(Ok(plan)) if !plan.faults().is_empty() => {
                install(plan);
                true
            }
            _ => false,
        }
    }

    /// The action to fire at checkpoint `(site, index)`, if an armed,
    /// not-yet-fired fault matches. Reading the env plan happens lazily on
    /// the first probe so plain binaries honour `SPROUT_FAULTS` without any
    /// setup call.
    pub fn probe(site: &str, index: usize) -> Option<FaultAction> {
        ENV_INIT.call_once(|| {
            install_from_env();
        });
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let installed = PLAN.lock().expect("fault plan lock").clone()?;
        for (f, fired) in installed.plan.faults().iter().zip(&installed.fired) {
            if f.index == index
                && f.site == site
                && fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return Some(f.action);
            }
        }
        None
    }
}

#[cfg(feature = "fault-inject")]
pub use active::{clear, install, install_from_env, probe};

/// No-op stand-ins when the `fault-inject` feature is off: the optimizer
/// erases every probe.
#[cfg(not(feature = "fault-inject"))]
mod inert {
    use super::FaultAction;

    /// Does nothing (feature `fault-inject` is off).
    #[inline(always)]
    pub fn install(_plan: super::FaultPlan) {}

    /// Does nothing (feature `fault-inject` is off).
    #[inline(always)]
    pub fn clear() {}

    /// Does nothing and reports no plan (feature `fault-inject` is off).
    #[inline(always)]
    pub fn install_from_env() -> bool {
        false
    }

    /// Always `None` (feature `fault-inject` is off).
    #[inline(always)]
    pub fn probe(_site: &str, _index: usize) -> Option<FaultAction> {
        None
    }
}

#[cfg(not(feature = "fault-inject"))]
pub use inert::{clear, install, install_from_env, probe};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_round_trip() {
        let spec = "panic@join.probe:3;cancel@conf.bag:1;budget@scan.chunk:2;slow@conf.bag:0:25";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.faults().len(), 4);
        assert_eq!(plan.faults()[0].action, FaultAction::Panic);
        assert_eq!(plan.faults()[3].action, FaultAction::Slow(25));
        assert_eq!(plan.render(), spec);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "panic",
            "panic@",
            "panic@site",
            "panic@site:x",
            "boom@site:1",
            "slow@site:1",
            "slow@site:1:zz",
            "panic@site:1:extra",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
        assert!(FaultPlan::parse("").unwrap().faults().is_empty());
        assert!(FaultPlan::parse(" ; ; ").unwrap().faults().is_empty());
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let sites = ["scan.morsel", "join.probe", "conf.bag"];
        for seed in 0..50u64 {
            let a = FaultPlan::random(seed, &sites, 16);
            let b = FaultPlan::random(seed, &sites, 16);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.faults().len(), 1);
            assert!(a.faults()[0].index < 16);
        }
        // Distinct seeds reach every action eventually.
        let actions: std::collections::BTreeSet<_> = (0..50u64)
            .map(|s| format!("{:?}", FaultPlan::random(s, &sites, 16).faults()[0].action))
            .collect();
        assert_eq!(actions.len(), 3, "{actions:?}");
        assert!(FaultPlan::random(7, &[], 16).faults().is_empty());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn probes_fire_once_and_clear_disarms() {
        install(FaultPlan::parse("cancel@t.site:2").unwrap());
        assert_eq!(probe("t.site", 0), None);
        assert_eq!(probe("t.other", 2), None);
        assert_eq!(probe("t.site", 2), Some(FaultAction::Cancel));
        // One-shot: the same checkpoint on a re-run does not fire again.
        assert_eq!(probe("t.site", 2), None);
        install(FaultPlan::parse("panic@t.site:0").unwrap());
        assert_eq!(probe("t.site", 0), Some(FaultAction::Panic));
        clear();
        assert_eq!(probe("t.site", 0), None);
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn probes_are_inert_without_the_feature() {
        install(FaultPlan::parse("panic@t.site:0").unwrap());
        assert_eq!(probe("t.site", 0), None);
        assert!(!install_from_env());
        clear();
    }
}
