//! The three closed-loop workloads. Each drives the simulator only through
//! public functions, issues one operation at a time and returns a digest of
//! each operation's simulated output for the reference check.

use crate::meter::Meter;
use crate::shadow;
use fleet::experiment::fleet_telemetry::demo_slos;
use fleet::experiment::scenario::AppPool;
use fleet::population::{device_seed, SLICE_LEN};
use fleet::{
    run_device_day, run_population, sample_device, Device, DeviceConfig, DeviceDayRow, FleetError,
    LaunchKind, LaunchReport, PopulationAggregate, PopulationSpec, SchemeKind,
};
use fleet_apps::{catalog, AppProfile};
use fleet_kernel::Pid;
use fleet_sim::SimRng;
use std::collections::BTreeMap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["idle_relaunch", "cohort_day", "capacity_churn"];

/// What one operation simulated.
#[derive(Debug, Default)]
pub struct OpOut {
    /// FNV-1a digest of the operation's simulated output.
    pub digest: u64,
    /// Simulated device-seconds the operation advanced.
    pub sim_secs: f64,
    /// Every launch the operation issued, in order.
    pub launches: Vec<LaunchReport>,
    /// LMK kills during the operation.
    pub kills: u64,
    /// Apps cached on a Fleet device at the end of the operation.
    pub cached_fleet: usize,
}

pub trait Workload {
    /// Runs operation `i`; this call is the operation's host time.
    fn op(&mut self, i: u64, m: &mut Meter) -> Result<OpOut, String>;
    /// Work after operation `i` that is checked but not part of its host
    /// time (the device-day replay of `cohort_day`).
    fn after_op(&mut self, _i: u64, _out: &mut OpOut, _m: &mut Meter) -> Result<(), String> {
        Ok(())
    }
    /// End-of-run checks; each returned string is one failed check.
    fn finish(&mut self, m: &mut Meter) -> Vec<String>;
    /// Operations in one pass. A freshly set-up workload runs operations
    /// `0..pass_ops()` once; the shipped reference covers exactly these.
    fn pass_ops(&self) -> u64;
}

/// Sets up one pass of workload `name` for `seed`.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "idle_relaunch" => Box::new(IdleRelaunch::new(seed).map_err(err)?),
        "cohort_day" => Box::new(CohortDay::new(seed).map_err(err)?),
        "capacity_churn" => Box::new(CapacityChurn::new(seed).map_err(err)?),
        _ => return Err(format!("unknown workload {name:?}; expected one of {NAMES:?}")),
    })
}

fn err(e: FleetError) -> String {
    e.to_string()
}

/// Streaming FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn mix_report(&mut self, r: &LaunchReport) {
        self.mix(match r.kind {
            LaunchKind::Hot => 1,
            LaunchKind::Cold => 2,
        });
        for v in [r.at.as_nanos(), r.total.as_nanos(), r.fault_stall.as_nanos()] {
            self.mix(v);
        }
        for v in [r.decompress.as_nanos(), r.faulted_pages, r.gc_stw.as_nanos()] {
            self.mix(v);
        }
    }
}

/// Adds the deltas of the kernel and reclaim counters over one stretch of
/// device time to the traced run's counters.
struct DeviceSnapshot {
    stats: fleet_kernel::KernelStats,
    kills: u64,
    escalations: u64,
    proactive: u64,
}

impl DeviceSnapshot {
    fn take(d: &Device) -> Self {
        let r = d.reclaim();
        DeviceSnapshot {
            stats: d.mm().stats(),
            kills: r.total_kills(),
            escalations: r.escalations(),
            proactive: r.proactive_pages(),
        }
    }

    /// The counters of a freshly built device.
    fn zero() -> Self {
        DeviceSnapshot { stats: Default::default(), kills: 0, escalations: 0, proactive: 0 }
    }

    fn record_delta(&self, d: &Device, m: &mut Meter) {
        if !m.tracing() {
            return;
        }
        let now = DeviceSnapshot::take(d);
        let (a, b) = (&self.stats, &now.stats);
        for (name, before, after) in [
            ("kernel.faults", a.faults, b.faults),
            ("kernel.faults_launch", a.faults_launch, b.faults_launch),
            ("kernel.faults_gc", a.faults_gc, b.faults_gc),
            ("kernel.pages_swapped_out", a.pages_swapped_out, b.pages_swapped_out),
            ("kernel.zram_writeback_pages", a.zram_writeback_pages, b.zram_writeback_pages),
            ("kernel.fault_retries", a.fault_retries, b.fault_retries),
            ("kernel.swap_read_errors", a.swap_read_errors, b.swap_read_errors),
            ("reclaim.kills", self.kills, now.kills),
            ("reclaim.escalations", self.escalations, now.escalations),
            ("reclaim.proactive_pages", self.proactive, now.proactive),
        ] {
            m.count(name, after.saturating_sub(before) as f64);
        }
    }
}

/// The live pid of the app named `name`, if it is cached on `device`.
fn cached_pid(device: &Device, name: &str) -> Option<Pid> {
    device.processes().find(|p| p.name == name).map(|p| p.pid)
}

// ------------------------------------------------------------ idle_relaunch

/// The §2.1 hot-launch protocol: one idle Pixel 3 per catalog app, each
/// bouncing its app against a helper app with 2 s gaps. As in Figure 2,
/// the devices take turns one at a time, [`IdleRelaunch::ROUNDS`]
/// consecutive rounds each.
pub struct IdleRelaunch {
    devices: Vec<(Device, Pid, Pid)>,
}

impl IdleRelaunch {
    const GAP_SECS: u64 = 2;
    const ROUNDS: u64 = 10;

    fn new(seed: u64) -> Result<Self, FleetError> {
        let devices =
            (0..catalog().len()).map(|i| Self::device(seed, i)).collect::<Result<_, _>>()?;
        Ok(IdleRelaunch { devices })
    }

    /// A fresh idle device with catalog app `i` and its helper cached.
    fn device(seed: u64, i: usize) -> Result<(Device, Pid, Pid), FleetError> {
        let apps = catalog();
        let mut config = DeviceConfig::pixel3(SchemeKind::Android);
        config.seed = device_seed(seed, i as u32);
        let mut device = Device::try_new(config)?;
        let (target, _) = device.launch_cold(&apps[i]);
        let (helper, _) = device.launch_cold(&apps[(i + 1) % apps.len()]);
        device.run(Self::GAP_SECS);
        Ok((device, target, helper))
    }
}

impl Workload for IdleRelaunch {
    fn op(&mut self, i: u64, m: &mut Meter) -> Result<OpOut, String> {
        let d = (i / Self::ROUNDS) as usize;
        let (device, target, helper) = &mut self.devices[d];
        let snap = DeviceSnapshot::take(device);
        let start = device.now();
        let mut out = OpOut::default();
        let mut fp = Fnv::new();
        let mut gc = None;
        for pid in [*target, *helper] {
            let id = m.reserve();
            let launch = shadow::launch(m, device, pid);
            let r = m.launch(id, || device.try_switch_to(pid)).map_err(err)?;
            shadow::finish(m, launch, id);
            if pid == *target {
                gc = shadow::gc(m, device);
            }
            if r.kind != LaunchKind::Hot {
                return Err(format!("op {i}: an idle relaunch was not a hot launch"));
            }
            fp.mix_report(&r);
            out.launches.push(r);
            m.run(device, Self::GAP_SECS);
        }
        shadow::finish(m, gc, 0);
        if !device.kills().is_empty() {
            return Err(format!("op {i}: an idle device killed an app"));
        }
        let stats = device.mm().stats();
        fp.mix(stats.faults);
        fp.mix(stats.pages_swapped_out);
        out.digest = fp.0;
        out.sim_secs = (device.now().as_nanos() - start.as_nanos()) as f64 / 1e9;
        snap.record_delta(device, m);
        Ok(out)
    }

    fn finish(&mut self, _m: &mut Meter) -> Vec<String> {
        Vec::new()
    }

    fn pass_ops(&self) -> u64 {
        Self::ROUNDS * self.devices.len() as u64
    }
}

// --------------------------------------------------------------- cohort_day

/// Salt of the population day-script RNG stream; must equal
/// `SCRIPT_SALT` in `crates/core/src/population.rs`. The replay check
/// fails on every device-day if the two drift apart.
const SCRIPT_SALT: u64 = 0xDA11_5C21_F700_0001;

/// Device-days from the default heterogeneous cohort, one after another.
///
/// The cohort's hardware, schemes and personas are sampled with a fixed
/// population seed, so every run simulates the same device mix; the run's
/// seed reseeds each device-day's behaviour and day script. Which devices
/// a seed drew would otherwise move the host-time figures far more than
/// run-to-run noise does.
pub struct CohortDay {
    seed: u64,
    spec: PopulationSpec,
    aggregate: PopulationAggregate,
    /// The plan and row of the operation last run, for its replay.
    last: Option<(fleet::DevicePlan, DeviceDayRow)>,
}

impl CohortDay {
    /// Cohort size the device indices are drawn from.
    const DEVICES: u32 = 4096;
    /// Device-days in one pass: devices `0..PASS` of the cohort.
    const PASS: u64 = 40;
    /// Population seed of the device mix.
    const MIX_SEED: u64 = 0;
    /// Device-days of the end-of-run `run_population` fold check.
    const FOLD_CHECK: u32 = 3;
    /// Every this many device-days, one is replayed through `AppPool`.
    const REPLAY_EVERY: u64 = 1;

    fn new(seed: u64) -> Result<Self, FleetError> {
        let spec = PopulationSpec::default_mix(Self::MIX_SEED, Self::DEVICES);
        // Warm-up: the last device-day of the cohort, which no run reaches.
        run_device_day(&sample_device(&spec, Self::DEVICES - 1)?)?;
        Ok(CohortDay {
            seed,
            aggregate: PopulationAggregate::new(Self::DEVICES, SLICE_LEN),
            spec,
            last: None,
        })
    }

    /// Replays a device-day through `AppPool` with the population's day
    /// script, timing each launch and slice, and checks it against the
    /// row `run_device_day` produced for the same plan; returns the
    /// launches that switched apps and the apps cached at the end of the
    /// day.
    fn replay(
        plan: &fleet::DevicePlan,
        row: &DeviceDayRow,
        m: &mut Meter,
    ) -> Result<(Vec<LaunchReport>, usize), String> {
        let pool = m.span("population.pool_boot", || AppPool::with_config(plan.config, &plan.apps));
        let mut pool = pool.map_err(err)?;
        pool.set_usage_gap(u64::from(plan.usage_gap_secs));
        let mut script = SimRng::seed_from(plan.seed ^ SCRIPT_SALT);
        let mut launches = Vec::new();
        // Launches that switch apps; a launch of the app already in the
        // foreground does no work and is neither timed nor returned.
        let mut switches = Vec::new();
        for _ in 0..plan.cycles {
            let target = &plan.apps[script.index(plan.apps.len())];
            let pid = cached_pid(pool.device(), target);
            if pid.is_some() && pid == pool.device().foreground() {
                launches.push(pool.launch(target).map_err(err)?);
            } else {
                let id = m.reserve();
                let launch = pid.and_then(|pid| shadow::launch(m, pool.device(), pid));
                match m.launch(id, || pool.launch(target)) {
                    Ok(r) => {
                        launches.push(r);
                        switches.push(r);
                    }
                    Err(FleetError::ProcessNotAlive(_)) => {}
                    Err(e) => return Err(e.to_string()),
                }
                shadow::finish(m, launch, id);
            }
            let gc = shadow::gc(m, pool.device());
            m.run(pool.device_mut(), u64::from(plan.usage_gap_secs));
            shadow::finish(m, gc, 0);
        }
        m.run(pool.device_mut(), 5);
        let device = pool.device();
        DeviceSnapshot::zero().record_delta(device, m);
        let hot_us: Vec<u64> = launches
            .iter()
            .filter(|r| r.kind == LaunchKind::Hot)
            .map(|r| r.total.as_micros())
            .collect();
        if hot_us != row.hot_launch_us
            || device.reclaim().total_kills() != row.lmk_kills
            || device.mm().stats().faults != row.faults
            || device.now().as_nanos() / 1_000_000_000 != row.sim_secs
        {
            let index = plan.index;
            return Err(format!("device {index}: the AppPool replay diverged from run_device_day"));
        }
        Ok((switches, device.cached_apps()))
    }
}

impl Workload for CohortDay {
    fn op(&mut self, i: u64, m: &mut Meter) -> Result<OpOut, String> {
        let index = u32::try_from(i).map_err(|e| e.to_string())?;
        let plan = m.span("population.sample_device", || sample_device(&self.spec, index));
        let mut plan = plan.map_err(err)?;
        plan.seed = device_seed(self.seed, index);
        plan.config.seed = plan.seed;
        let row = m.span("population.run_device_day", || run_device_day(&plan)).map_err(err)?;
        let aggregate = &mut self.aggregate;
        m.span("population.absorb", || aggregate.absorb(&row));
        let out = OpOut {
            digest: row.fingerprint,
            sim_secs: row.sim_secs as f64,
            launches: Vec::new(),
            kills: row.lmk_kills,
            cached_fleet: 0,
        };
        self.last = Some((plan, row));
        Ok(out)
    }

    fn after_op(&mut self, i: u64, out: &mut OpOut, m: &mut Meter) -> Result<(), String> {
        let (plan, row) = self.last.take().ok_or("no device-day to replay")?;
        if !i.is_multiple_of(Self::REPLAY_EVERY) {
            return Ok(());
        }
        let root = m.begin_root(i);
        let replayed = Self::replay(&plan, &row, m);
        m.end_root(root, "replay");
        let (launches, cached) = replayed?;
        out.launches = launches;
        if plan.config.scheme == SchemeKind::Fleet {
            out.cached_fleet = cached;
        }
        Ok(())
    }

    fn finish(&mut self, m: &mut Meter) -> Vec<String> {
        let mut failed = Vec::new();
        let aggregate = &mut self.aggregate;
        m.span("population.evaluate_slos", || aggregate.evaluate_slos(&demo_slos()));
        if self.aggregate.slo_verdicts.len() != demo_slos().len() {
            failed.push("evaluate_slos returned the wrong number of verdicts".to_string());
        }
        // The population layer's own fold over a small cohort of this seed
        // must match absorbing its device-days one by one.
        let spec = PopulationSpec::default_mix(self.seed, Self::FOLD_CHECK);
        let mut fold = PopulationAggregate::new(Self::FOLD_CHECK, SLICE_LEN);
        let folded = (0..Self::FOLD_CHECK).try_for_each(|i| {
            fold.absorb(&run_device_day(&sample_device(&spec, i)?)?);
            Ok::<_, FleetError>(())
        });
        match folded.and_then(|()| run_population(&spec, 1)) {
            Ok(run) if run.aggregate == fold => {}
            Ok(_) => failed.push("the absorb fold differs from run_population".to_string()),
            Err(e) => failed.push(format!("population fold check failed: {e}")),
        }
        failed
    }

    fn pass_ops(&self) -> u64 {
        Self::PASS
    }
}

// ----------------------------------------------------------- capacity_churn

/// The Figure 11c protocol: a Pixel 3 per scheme round-robins the whole
/// catalog, 30 s of use per app; every revisit relaunches after a kill.
/// Operations alternate between the three devices; each device's own
/// sequence is the protocol.
pub struct CapacityChurn {
    apps: Vec<AppProfile>,
    devices: Vec<(Device, BTreeMap<String, Pid>)>,
}

impl CapacityChurn {
    const SCHEMES: [SchemeKind; 3] = [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet];
    const CYCLES: u64 = 2;
    const USE_SECS: u64 = 30;

    fn new(seed: u64) -> Result<Self, FleetError> {
        let config = |scheme| DeviceConfig::builder(scheme).seed(device_seed(seed, 0)).build();
        let devices = || {
            Self::SCHEMES
                .iter()
                .map(|&scheme| Ok((Device::try_new(config(scheme)?)?, BTreeMap::new())))
                .collect::<Result<Vec<_>, FleetError>>()
        };
        let mut w = CapacityChurn { apps: catalog(), devices: devices()? };
        // Warm-up: one app cycle per device, then the devices are built
        // afresh. Building the devices alone takes microseconds.
        let mut warm = Meter::new(false);
        for i in 0..Self::SCHEMES.len() as u64 {
            w.op(i, &mut warm).map_err(FleetError::InvalidConfig)?;
        }
        w.devices = devices()?;
        Ok(w)
    }
}

impl Workload for CapacityChurn {
    fn op(&mut self, i: u64, m: &mut Meter) -> Result<OpOut, String> {
        let schemes = Self::SCHEMES.len() as u64;
        let (slot, step) = ((i % schemes) as usize, i / schemes);
        let scheme = Self::SCHEMES[slot];
        let (device, pids) = &mut self.devices[slot];
        let app = &self.apps[(step % self.apps.len() as u64) as usize];
        let snap = DeviceSnapshot::take(device);
        let start = device.now();
        let alive = pids.get(&app.name).copied().filter(|&p| device.try_process(p).is_ok());
        let id = m.reserve();
        let launch = alive.and_then(|pid| shadow::launch(m, device, pid));
        let report = match alive {
            Some(pid) => m.launch(id, || device.try_switch_to(pid)).map_err(err)?,
            None => {
                let mut pid = None;
                let r = m
                    .launch(id, || {
                        let (p, r) = device.launch_cold(app);
                        pid = Some(p);
                        Ok::<_, FleetError>(r)
                    })
                    .map_err(err)?;
                pids.insert(app.name.clone(), pid.expect("a cold launch returns its pid"));
                r
            }
        };
        shadow::finish(m, launch, id);
        let gc = shadow::gc(m, device);
        m.run(device, Self::USE_SECS);
        shadow::finish(m, gc, 0);
        let mut fp = Fnv::new();
        fp.mix_report(&report);
        fp.mix(device.cached_apps() as u64);
        fp.mix(device.reclaim().total_kills());
        fp.mix(device.mm().stats().pages_swapped_out);
        let out = OpOut {
            digest: fp.0,
            sim_secs: (device.now().as_nanos() - start.as_nanos()) as f64 / 1e9,
            launches: vec![report],
            kills: device.reclaim().total_kills() - snap.kills,
            cached_fleet: if scheme == SchemeKind::Fleet { device.cached_apps() } else { 0 },
        };
        snap.record_delta(device, m);
        Ok(out)
    }

    fn finish(&mut self, _m: &mut Meter) -> Vec<String> {
        Vec::new()
    }

    fn pass_ops(&self) -> u64 {
        Self::SCHEMES.len() as u64 * Self::CYCLES * self.apps.len() as u64
    }
}
