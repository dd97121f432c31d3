//! The frozen product surface.
//!
//! **Every** call the benchmark makes into `spn-*` lives in this file,
//! so the API the benchmark depends on can be reviewed — and kept
//! working through the ROADMAP's engine and transport collapses — in
//! one place. The workloads see only the wrapper types below.
//!
//! Rules this file keeps:
//!
//! * configs are built by struct update from `Default` with exactly one
//!   field named (`threads: 1`, `regions`), so deleting other knobs
//!   (`sparsity`, `simd`, …) does not break the benchmark;
//! * the product is driven from the calling thread only; the worker
//!   pool appears in one per-layer probe ([`Core::fork_with_threads`]);
//! * nothing here measures end-to-end time — callers wrap these methods
//!   in their own clocks. The only clocks in this file belong to the
//!   per-layer probes (sweep replay, reshape replay, codec replay, the
//!   timed transport) that have no other way to see inside a call.

use crate::trace::{SpanId, Tracer};
use spn_baseline::{AdmissionPolicy, BackPressure, BackPressureConfig};
use spn_core::blocked::{compute_tags_into, BlockedTags};
use spn_core::flows::{balance_residual, compute_flows_into};
use spn_core::gamma::apply_gamma_ws;
use spn_core::marginals::compute_marginals_into;
use spn_core::{GradientAlgorithm, GradientConfig, IterationWorkspace, NewtonGradient};
use spn_mesh::{
    BatchReader, Frame, Inbox, Lossless, MeshConfig, MeshFaultConfig, MeshIncident, MeshRuntime,
    SocketKind, SocketOptions, SocketTransport, Transport,
};
use spn_model::hierarchy::HierarchicalInstance;
use spn_model::random::RandomInstance;
use spn_model::{Capacity, CommodityId, Problem};
use spn_solver::arcflow::solve_linear_utility;
use spn_transform::ExtendedNetwork;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Largest flow-balance residual (eq. (3)) an output check accepts.
const BALANCE_TOLERANCE: f64 = 1e-9;

/// Anything that advances one protocol iteration and reports the total
/// utility an operator would watch: the single-process core and the
/// region mesh.
pub trait Stepper {
    /// One iteration.
    fn step(&mut self);
    /// Current total utility `Σ_j U_j(a_j)`.
    fn utility(&self) -> f64;
}

// --- inputs -------------------------------------------------------------

/// A generated problem instance (linear utilities).
#[derive(Clone, Debug)]
pub struct Spec(Problem);

impl Spec {
    /// The paper's §6 random family at a given size: capacities
    /// `U[1,100]`, gains `U[1,10]`, costs `U[1,5]`, offered load scaled
    /// by `demand_scale`.
    pub fn random(seed: u64, nodes: usize, commodities: usize, demand_scale: f64) -> Spec {
        let instance = RandomInstance::builder()
            .nodes(nodes)
            .commodities(commodities)
            .seed(seed)
            .build()
            .expect("the random family always yields a valid instance");
        Spec(instance.problem.scale_demand(demand_scale))
    }

    /// A regions × racks × servers hierarchy shared by `tenants`
    /// commodities.
    pub fn hierarchical(
        seed: u64,
        (regions, racks, servers): (usize, usize, usize),
        tenants: usize,
        demand_scale: f64,
    ) -> Spec {
        let instance = HierarchicalInstance::builder()
            .regions(regions)
            .racks_per_region(racks)
            .servers_per_rack(servers)
            .commodities(tenants)
            .seed(seed)
            .build()
            .expect("the hierarchy is large enough for its tenants");
        Spec(instance.problem.scale_demand(demand_scale))
    }

    /// The centralized LP optimum — the reference every utility ratio
    /// and every "90 % of optimum" target is taken against.
    pub fn lp_optimum(&self) -> f64 {
        solve_linear_utility(&self.0)
            .expect("a linear-utility instance always solves")
            .objective
    }

    /// Physical node count.
    #[cfg(test)]
    pub fn nodes(&self) -> usize {
        self.0.graph().node_count()
    }

    /// Offered load `Σ_j λ_j`; with [`Spec::nodes`] the fingerprint the
    /// determinism tests compare.
    #[cfg(test)]
    pub fn total_demand(&self) -> f64 {
        self.0.total_demand()
    }
}

/// The §3 extended network of a [`Spec`].
#[derive(Clone, Debug)]
pub struct Network(ExtendedNetwork);

impl Network {
    /// `ExtendedNetwork::build`.
    pub fn build(spec: &Spec) -> Network {
        Network(ExtendedNetwork::build(&spec.0))
    }
}

fn gradient_config() -> GradientConfig {
    GradientConfig {
        threads: 1,
        ..GradientConfig::default()
    }
}

// --- the single-process core -------------------------------------------

/// `spn_core::GradientAlgorithm` behind the calls the benchmark makes.
#[derive(Clone, Debug)]
pub struct Core(GradientAlgorithm);

/// Wall seconds of the five full (dense, serial) sweeps replayed on a
/// copy of one iteration's state.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sweeps {
    /// `CostModel::total_cost`.
    pub cost: f64,
    /// `compute_tags_into`.
    pub tags: f64,
    /// `apply_gamma_ws`.
    pub gamma: f64,
    /// `compute_flows_into`.
    pub flows: f64,
    /// `compute_marginals_into`.
    pub marginals: f64,
}

impl Sweeps {
    /// Sum of the five.
    pub fn total(&self) -> f64 {
        self.cost + self.tags + self.gamma + self.flows + self.marginals
    }
}

/// Wall seconds of one evict + cold re-admit, by public call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Readmit {
    /// `GradientAlgorithm::evict_commodity`.
    pub evict: f64,
    /// `GradientAlgorithm::admit_commodity`.
    pub admit: f64,
}

impl Core {
    /// `GradientAlgorithm::from_extended` with `threads: 1`.
    pub fn new(network: Network) -> Core {
        Core(
            GradientAlgorithm::from_extended(network.0, gradient_config())
                .expect("the default tunables are valid"),
        )
    }

    /// One iteration; returns the number of Γ rows it updated.
    pub fn step_rows(&mut self) -> usize {
        self.0.step().gamma.rows
    }

    /// Iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.0.iterations()
    }

    /// Live commodity count.
    pub fn commodities(&self) -> usize {
        self.0.extended().num_commodities()
    }

    /// The same state on `threads` workers (the pool probe). Returns
    /// the clone and the worker count the product resolved.
    pub fn fork_with_threads(&self, threads: usize) -> (Core, usize) {
        let mut fork = self.0.clone();
        fork.set_threads(threads);
        let resolved = fork.resolved_threads();
        (Core(fork), resolved)
    }

    /// Evicts commodity `j` and re-admits it cold (it returns as the
    /// highest commodity index, fully rejecting).
    pub fn readmit(&mut self, j: usize) -> Readmit {
        let j = CommodityId::from_index(j);
        let def = self.0.extended().commodity_def(j);
        let t = Instant::now();
        self.0.evict_commodity(j);
        let evict = t.elapsed().as_secs_f64();
        let t = Instant::now();
        self.0.admit_commodity(def);
        Readmit {
            evict,
            admit: t.elapsed().as_secs_f64(),
        }
    }

    /// Times `ExtendedNetwork::remove_commodity` + `add_commodity` for
    /// commodity `j` on a copy of the network (the transform layer's
    /// share of a re-admit). Returns `(remove, add)` seconds.
    pub fn replay_reshape(&self, j: usize) -> (f64, f64) {
        let j = CommodityId::from_index(j);
        let mut ext = self.0.extended().clone();
        let def = ext.commodity_def(j);
        let t = Instant::now();
        ext.remove_commodity(j);
        let remove = t.elapsed().as_secs_f64();
        let t = Instant::now();
        ext.add_commodity(def);
        (remove, t.elapsed().as_secs_f64())
    }

    /// Multiplies commodity `j`'s offered load by `factor`.
    pub fn scale_demand(&mut self, j: usize, factor: f64) {
        let j = CommodityId::from_index(j);
        let rate = self.0.extended().commodity(j).max_rate;
        self.0.extended_mut().set_max_rate(j, rate * factor);
    }

    /// Multiplies the capacity of the most utilized finite node by
    /// `factor`.
    pub fn scale_busiest_capacity(&mut self, factor: f64) {
        let ext = self.0.extended();
        let busiest = ext
            .graph()
            .nodes()
            .filter(|&v| !ext.capacity(v).is_infinite())
            .max_by(|&a, &b| {
                let ua = ext.capacity(a).utilization(self.0.flows().node_usage(a));
                let ub = ext.capacity(b).utilization(self.0.flows().node_usage(b));
                ua.total_cmp(&ub).then(b.index().cmp(&a.index()))
            })
            .expect("every network has a finite-capacity node");
        let scaled = Capacity::finite(ext.capacity(busiest).value() * factor)
            .expect("a positive factor keeps the capacity positive");
        self.0.extended_mut().set_capacity(busiest, scaled);
    }

    /// The paper's own guarantees as output checks: φ-simplex
    /// (`RoutingTable::validate`), loop freedom, flow balance.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_outputs(&self) -> Result<(), String> {
        let (ext, routing) = (self.0.extended(), self.0.routing());
        routing.validate(ext)?;
        if !routing.is_loop_free(ext) {
            return Err("routing has a positive-fraction loop".into());
        }
        let residual = balance_residual(ext, routing, self.0.flows());
        if residual.is_nan() || residual > BALANCE_TOLERANCE {
            return Err(format!("flow balance residual {residual:e}"));
        }
        if !self.0.utility().is_finite() {
            return Err("utility is not finite".into());
        }
        Ok(())
    }

    /// `(live arcs, routers)`: arcs with a nonzero routing fraction and
    /// `(commodity, router)` rows, summed over commodities.
    pub fn shape(&self) -> (usize, usize) {
        let (ext, routing) = (self.0.extended(), self.0.routing());
        let mut live = 0;
        let mut routers = 0;
        for j in ext.commodity_ids() {
            routers += ext.commodity_routers(j).len();
            live += ext
                .commodity_edges(j)
                .iter()
                .filter(|&&l| routing.fraction(j, l) > 0.0)
                .count();
        }
        (live, routers)
    }

    /// Replays one iteration's five sweeps, dense and serial
    /// (`pool: None`), on copies of the current state and times each —
    /// what a step would cost if the active set skipped nothing. The
    /// copies are made outside the clocks. Each sweep is recorded as a
    /// child span of `parent`.
    pub fn replay_sweeps(&self, tracer: &mut Tracer, parent: SpanId, iteration: u64) -> Sweeps {
        let alg = &self.0;
        let (ext, cost, cfg) = (alg.extended(), alg.cost_model(), alg.config());
        let mut routing = alg.routing().clone();
        let mut flows = alg.flows().clone();
        let mut marginals = alg.marginals().clone();
        let mut tags = BlockedTags::none(ext);
        let mut ws = IterationWorkspace::new(ext);
        let mut out = Sweeps::default();
        (_, out.cost) = tracer.time("core.cost.full", parent, iteration, || {
            std::hint::black_box(cost.total_cost(ext, &flows))
        });
        ((), out.tags) = tracer.time("core.blocked.sweep", parent, iteration, || {
            compute_tags_into(
                ext,
                cost,
                &routing,
                &flows,
                &marginals,
                cfg.eta,
                cfg.traffic_floor,
                &mut tags,
                None,
            );
        });
        (_, out.gamma) = tracer.time("core.gamma.apply", parent, iteration, || {
            std::hint::black_box(apply_gamma_ws(
                ext,
                cost,
                &mut routing,
                &flows,
                &marginals,
                &tags,
                cfg.eta,
                cfg.traffic_floor,
                cfg.opening_fraction,
                cfg.shift_cap,
                &mut ws,
                None,
            ))
        });
        ((), out.flows) = tracer.time("core.flows.sweep", parent, iteration, || {
            compute_flows_into(ext, &routing, &mut flows, &mut ws, None);
        });
        ((), out.marginals) = tracer.time("core.marginals.sweep", parent, iteration, || {
            compute_marginals_into(ext, cost, &routing, &flows, &mut marginals, None);
        });
        std::hint::black_box((&routing, &flows, &marginals));
        out
    }
}

impl Stepper for Core {
    fn step(&mut self) {
        self.0.step();
    }

    fn utility(&self) -> f64 {
        self.0.utility()
    }
}

// --- the paper's comparison algorithms (informational probes) -----------

/// Newton-scaled gradient on `spec`, cold start until `target` utility
/// or `cap` iterations. Returns `(iterations if reached, seconds)`.
pub fn newton_run(spec: &Spec, target: f64, cap: usize) -> (Option<usize>, f64) {
    // damping 0.3 / curvature floor 1e-3: the best row of the
    // repository's own newton_ablation experiment
    let cfg = GradientConfig {
        eta: 0.3,
        ..gradient_config()
    };
    let mut alg = NewtonGradient::new(&spec.0, cfg, 1e-3).expect("valid tunables");
    let start = Instant::now();
    for k in 1..=cap {
        alg.step();
        if alg.utility() >= target {
            return (Some(k), start.elapsed().as_secs_f64());
        }
    }
    (None, start.elapsed().as_secs_f64())
}

/// The back-pressure baseline exactly as the repository's Figure 4
/// experiment configures it. Returns `(iterations if reached, seconds)`.
pub fn back_pressure_run(spec: &Spec, target: f64, cap: usize) -> (Option<usize>, f64) {
    let cfg = BackPressureConfig {
        policy: AdmissionPolicy::Linear { v: 50_000.0 },
        window: 2000,
        transfer_gain: Some(0.01),
        ..BackPressureConfig::default()
    };
    let mut bp = BackPressure::new(&spec.0, cfg);
    let start = Instant::now();
    for k in 1..=cap {
        bp.step();
        // the windowed report allocates; probe it on a stride
        if k % 50 == 0 && bp.report().utility >= target {
            return (Some(k), start.elapsed().as_secs_f64());
        }
    }
    (None, start.elapsed().as_secs_f64())
}

// --- the region mesh ----------------------------------------------------

/// What carries the mesh's frames.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Link {
    /// Unix-domain socket pairs (the measured configuration).
    Uds,
    /// Loopback TCP.
    Tcp,
    /// The in-process lossless queue (no kernel).
    InProcess,
    /// Unix-domain sockets dropping a seeded share of frames.
    LossyUds {
        /// Fault seed.
        seed: u64,
        /// Per-frame loss probability.
        loss: f64,
    },
}

/// Per-call accounting of the timed transport, shared between the
/// wrapper (inside the runtime) and the workload (outside).
#[derive(Debug, Default)]
pub struct TransportLog {
    /// Whether calls are being accounted (the workload switches it on
    /// around the iterations it attributes).
    pub counting: bool,
    /// Nanoseconds inside `begin_tick`, `ready`, `send`, `deliver_into`.
    pub ns: [u64; 4],
    /// Calls of each kind, same order.
    pub calls: [u64; 4],
    /// `ready` polls that answered "not yet".
    pub not_ready: u64,
    /// Frames to keep for the codec replay (counts down).
    pub capture: usize,
    /// Captured frame bytes.
    pub frames: Vec<Vec<u8>>,
    /// When set, every call is also queued as a raw span for the
    /// workload to attach to the current iteration.
    pub spans_on: bool,
    /// `(call kind, start, end)` since the last drain.
    pub pending: Vec<(usize, Instant, Instant)>,
}

/// Span names of the four transport calls, indexed like
/// [`TransportLog::ns`].
pub const TRANSPORT_CALLS: [&str; 4] = [
    "mesh.transport.begin_tick",
    "mesh.transport.ready",
    "mesh.transport.send",
    "mesh.transport.deliver",
];

/// A [`Transport`] that clocks every call into the transport it wraps.
struct Timed<T> {
    inner: T,
    log: Rc<RefCell<TransportLog>>,
}

impl<T> Timed<T> {
    fn clocked<R>(&mut self, kind: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        let mut log = self.log.borrow_mut();
        if !log.counting {
            return out;
        }
        log.ns[kind] += (end - start).as_nanos() as u64;
        log.calls[kind] += 1;
        if log.spans_on {
            log.pending.push((kind, start, end));
        }
        out
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>) {
        self.clocked(0, |t| t.begin_tick(tick, log));
    }

    fn ready(&mut self, tick: u64, to: usize) -> bool {
        let ready = self.clocked(1, |t| t.ready(tick, to));
        let mut log = self.log.borrow_mut();
        if !ready && log.counting {
            log.not_ready += 1;
        }
        ready
    }

    fn send(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        bytes: &[u8],
        log: &mut Vec<MeshIncident>,
    ) {
        {
            let mut shared = self.log.borrow_mut();
            if shared.counting && shared.capture > 0 {
                shared.capture -= 1;
                shared.frames.push(bytes.to_vec());
            }
        }
        self.clocked(2, |t| t.send(tick, from, to, bytes, log));
    }

    fn deliver_into(
        &mut self,
        tick: u64,
        to: usize,
        inbox: &mut Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        self.clocked(3, |t| t.deliver_into(tick, to, inbox, log));
    }
}

enum Runtime {
    Socket(MeshRuntime<SocketTransport>),
    TimedSocket(MeshRuntime<Timed<SocketTransport>>),
    InProcess(MeshRuntime<Lossless>),
}

/// Runs `$body` with `$m` bound to whichever runtime `$runtime` (a
/// `&Runtime` or `&mut Runtime`) holds.
macro_rules! with_runtime {
    ($runtime:expr, $m:ident => $body:expr) => {
        match $runtime {
            Runtime::Socket($m) => $body,
            Runtime::TimedSocket($m) => $body,
            Runtime::InProcess($m) => $body,
        }
    };
}

/// Send-side wire counters summed over all links
/// (`MeshRuntime::wire_stats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct WireCounts {
    /// Batch frames shipped.
    pub frames: u64,
    /// Frame bytes shipped.
    pub bytes: u64,
    /// Rows shipped.
    pub rows_sent: u64,
    /// Rows the delta fingerprints suppressed.
    pub rows_suppressed: u64,
    /// Round gaps detected.
    pub resyncs: u64,
}

/// `spn_mesh::MeshRuntime`, all regions driven from the calling thread.
pub struct Mesh(Runtime);

impl Mesh {
    /// A `regions`-way mesh over `link`. With `log`, socket traffic
    /// goes through the timed transport (`MeshRuntime::with_transport`);
    /// without, through the product's own constructors.
    pub fn new(
        network: Network,
        regions: usize,
        link: Link,
        log: Option<Rc<RefCell<TransportLog>>>,
    ) -> Mesh {
        let config = MeshConfig {
            regions,
            ..MeshConfig::default()
        };
        let options = match link {
            Link::Uds | Link::InProcess => SocketOptions::default(),
            Link::Tcp => SocketOptions {
                kind: SocketKind::Tcp,
                ..SocketOptions::default()
            },
            Link::LossyUds { seed, loss } => SocketOptions {
                faults: Some(MeshFaultConfig {
                    seed,
                    loss,
                    ..MeshFaultConfig::off()
                }),
                ..SocketOptions::default()
            },
        };
        let runtime = match (link, log) {
            (Link::InProcess, _) => Runtime::InProcess(
                MeshRuntime::lossless(network.0, config).expect("valid mesh config"),
            ),
            (_, None) => Runtime::Socket(
                MeshRuntime::socket(network.0, config, &options).expect("loopback sockets open"),
            ),
            (_, Some(log)) => {
                let inner =
                    SocketTransport::connect(regions, &options).expect("loopback sockets open");
                Runtime::TimedSocket(
                    MeshRuntime::with_transport(network.0, config, Timed { inner, log })
                        .expect("valid mesh config"),
                )
            }
        };
        Mesh(runtime)
    }

    /// Iterations performed so far.
    pub fn iterations(&self) -> usize {
        with_runtime!(&self.0, m => m.iterations())
    }

    /// Length of the incident log (empty on a healthy lossless run).
    pub fn incidents(&self) -> usize {
        with_runtime!(&self.0, m => m.incidents().len())
    }

    /// Wire counters so far.
    pub fn wire(&self) -> WireCounts {
        let w = with_runtime!(&self.0, m => m.wire_stats());
        WireCounts {
            frames: w.frames,
            bytes: w.bytes,
            rows_sent: w.rows_sent,
            rows_suppressed: w.rows_suppressed,
            resyncs: w.resyncs,
        }
    }
}

impl Stepper for Mesh {
    fn step(&mut self) {
        with_runtime!(&mut self.0, m => drop(m.step()));
    }

    fn utility(&self) -> f64 {
        with_runtime!(&self.0, m => m.utility())
    }
}

/// Replays captured frames through the codec. Returns nanoseconds per
/// byte for `(Frame::decode, Frame::encode_into, BatchReader walk)`.
///
/// # Panics
///
/// Panics if a captured frame fails to decode — the workers just
/// produced them, so that is a product bug worth a loud stop.
pub fn codec_replay(frames: &[Vec<u8>], rounds: usize) -> (f64, f64, f64) {
    let bytes: usize = frames.iter().map(Vec::len).sum();
    if bytes == 0 {
        return (0.0, 0.0, 0.0);
    }
    let per_byte = |secs: f64| secs * 1e9 / (bytes * rounds) as f64;
    let decoded: Vec<Frame> = frames
        .iter()
        .map(|f| Frame::decode(f).expect("a frame the worker just sent decodes"))
        .collect();
    let t = Instant::now();
    for _ in 0..rounds {
        for f in frames {
            std::hint::black_box(Frame::decode(std::hint::black_box(f)).is_ok());
        }
    }
    let decode = per_byte(t.elapsed().as_secs_f64());
    let mut buf = Vec::new();
    let t = Instant::now();
    for _ in 0..rounds {
        for f in &decoded {
            f.encode_into(&mut buf);
            std::hint::black_box(&buf);
        }
    }
    let encode = per_byte(t.elapsed().as_secs_f64());
    let t = Instant::now();
    for _ in 0..rounds {
        for f in frames {
            let mut reader = BatchReader::parse(f).expect("worker traffic is batched");
            let mut payload = 0;
            while let Some(sub) = reader.next_sub() {
                payload += sub.expect("well-formed sub-frame").payload.len();
            }
            std::hint::black_box(payload);
        }
    }
    (decode, encode, per_byte(t.elapsed().as_secs_f64()))
}
