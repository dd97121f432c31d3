//! Educational trace of the §5 protocols on a tiny network: watch the
//! marginal-cost wave travel upstream, the Γ update shift routing mass,
//! and the forecast wave travel back down — with the per-round message
//! accounting a real deployment would pay.
//!
//! The second half re-runs the same instance on the region-sharded mesh
//! runtime and taps the wire: every batch frame of the first two
//! iterations is printed sub-frame by sub-frame (tick, phase, link,
//! kind, size), followed by the runtime's own per-link wire telemetry
//! for the full run — frames, bytes, and the rows the delta layer
//! suppressed (ARCHITECTURE invariant 20) — the mesh's concrete answer
//! to the message accounting the first half estimates.
//!
//! Run with: `cargo run --release --example protocol_trace`

use std::cell::RefCell;
use std::rc::Rc;

use spn::core::GradientConfig;
use spn::mesh::{
    BatchReader, Inbox, MeshConfig, MeshIncident, MeshRuntime, SocketKind, SocketOptions,
    SocketTransport, Transport, TICKS_PER_ITERATION,
};
use spn::model::builder::ProblemBuilder;
use spn::model::{CommodityId, UtilityFn};
use spn::sim::GradientSim;
use spn::transform::view::{edge_label, node_label};
use spn::transform::ExtendedNetwork;

/// In-process pipes with a wire tap: the first ticks' batch frames are
/// decoded as they cross the transport and printed sub-frame by
/// sub-frame, so the trace shows exactly what a deployment would put on
/// the network. Totals come from the runtime's own telemetry, not the
/// tap.
struct Traced {
    inner: SocketTransport,
    print_until_tick: Rc<RefCell<u64>>,
}

impl Transport for Traced {
    fn begin_tick(&mut self, tick: u64, log: &mut Vec<MeshIncident>) {
        self.inner.begin_tick(tick, log);
    }

    fn ready(&mut self, tick: u64, to: usize) -> bool {
        self.inner.ready(tick, to)
    }

    fn send(
        &mut self,
        tick: u64,
        from: usize,
        to: usize,
        bytes: &[u8],
        log: &mut Vec<MeshIncident>,
    ) {
        if tick < *self.print_until_tick.borrow() {
            let mut reader = BatchReader::parse(bytes).expect("mesh frames decode");
            println!(
                "  tick {tick}:  region {from} -> {to}  batch round {:<3} {} bytes",
                reader.round(),
                bytes.len()
            );
            while let Some(sub) = reader.next_sub() {
                let sub = sub.expect("mesh sub-frames decode");
                println!(
                    "      {:<13} round {:<3} {} payload bytes",
                    sub.kind.name(),
                    sub.round,
                    sub.payload.len()
                );
            }
        }
        self.inner.send(tick, from, to, bytes, log);
    }

    fn deliver_into(
        &mut self,
        tick: u64,
        to: usize,
        inbox: &mut Inbox,
        log: &mut Vec<MeshIncident>,
    ) {
        self.inner.deliver_into(tick, to, inbox, log);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A diamond: the source can reach the sink through a cheap relay or
    // an expensive one.
    let mut b = ProblemBuilder::new();
    let s = b.server(40.0);
    let cheap = b.server(30.0);
    let pricey = b.server(6.0);
    let t = b.server(40.0);
    let e_sc = b.link(s, cheap, 25.0);
    let e_sp = b.link(s, pricey, 25.0);
    let e_ct = b.link(cheap, t, 25.0);
    let e_pt = b.link(pricey, t, 25.0);
    let j = b.commodity(s, t, 10.0, UtilityFn::throughput());
    b.uses(j, e_sc, 1.0, 1.0)
        .uses(j, e_sp, 1.0, 1.0)
        .uses(j, e_ct, 1.5, 1.0)
        .uses(j, e_pt, 1.5, 1.0);
    let problem = b.build()?;

    let mut sim = GradientSim::new(
        &problem,
        GradientConfig {
            eta: 0.3,
            ..Default::default()
        },
    )?;
    let ext = sim.extended().clone();
    let j = CommodityId::from_index(0);

    println!(
        "extended network ({} nodes, {} edges):",
        ext.graph().node_count(),
        ext.graph().edge_count()
    );
    for l in ext.graph().edges() {
        let (a, bb) = ext.graph().endpoints(l);
        println!(
            "  {} : {} -> {}",
            edge_label(&ext, l),
            node_label(&ext, a),
            node_label(&ext, bb)
        );
    }

    println!("\niter  rounds msgs   admitted  phi(admit) phi(cheap) phi(pricey)");
    let s_outs: Vec<_> = ext
        .commodity_out_edges(j, ext.commodity(j).source())
        .collect();
    for i in 0..12 {
        let stats = sim.step();
        let rt = sim.routing();
        println!(
            "{:>4}  {:>5} {:>5}   {:>7.3}   {:>8.3}  {:>8.3}  {:>9.3}",
            i + 1,
            stats.rounds(),
            stats.messages(),
            sim.flows().admitted(&ext, j),
            rt.admitted_fraction(&ext, j),
            rt.fraction(j, s_outs[0]),
            rt.fraction(j, s_outs[1]),
        );
    }
    for _ in 12..4000 {
        sim.step();
    }
    let rt = sim.routing();
    println!("\nafter 4000 iterations:");
    println!(
        "  admitted {:.3} of 10 offered; source splits {:.2} / {:.2} between relays",
        sim.flows().admitted(&ext, j),
        rt.fraction(j, s_outs[0]),
        rt.fraction(j, s_outs[1]),
    );
    println!(
        "  total protocol traffic: {} messages over {} synchronous rounds",
        sim.total_messages(),
        sim.total_rounds()
    );
    println!("\nEach iteration pays two O(L) waves (marginal costs upstream,");
    println!("forecasts downstream); the admitted rate is nothing more than the");
    println!("dummy source's routing fraction on its 'admit' link times λ.");

    // --- the same instance on the region-sharded mesh runtime ---
    // Two workers split the servers, each router going with the server
    // that runs it; the protocol's waves become one delta-encoded batch
    // frame per link per iteration, a single tick. The tap prints the
    // first two iterations frame by frame: each batch is a heartbeat
    // carrying the Γ rows its owner moved (and the acks of the rows it
    // took up). No marginal and no forecast travels — every worker
    // sweeps both waves over its own mirror, and every marginal a
    // decider reads belongs to a node its own region owns.
    const REGIONS: usize = 2;
    let print_until_tick = Rc::new(RefCell::new(2 * TICKS_PER_ITERATION));
    let transport = Traced {
        inner: SocketTransport::connect(
            REGIONS,
            &SocketOptions {
                kind: SocketKind::Memory,
                ..SocketOptions::default()
            },
        )
        .expect("in-process pipes"),
        print_until_tick: Rc::clone(&print_until_tick),
    };
    let mut mesh = MeshRuntime::with_transport(
        ExtendedNetwork::build(&problem),
        MeshConfig {
            regions: REGIONS,
            gradient: GradientConfig {
                eta: 0.3,
                ..Default::default()
            },
            ..MeshConfig::default()
        },
        transport,
    )?;
    println!("\nmesh runtime, {REGIONS} regions — first two iterations on the wire:");
    mesh.run(2);
    mesh.run(3998);
    let report = mesh.run(0);

    println!("\nper-link wire telemetry after 4000 mesh iterations:");
    println!("  from  to  frames      bytes  rows sent  rows suppressed");
    for from in 0..REGIONS {
        for to in 0..REGIONS {
            if from == to {
                continue;
            }
            let s = mesh.worker(from).link_wire_stats(to);
            println!(
                "  {from:>4}  {to:>2}  {:>6}  {:>9}  {:>9}  {:>15}",
                s.frames_sent, s.bytes_sent, s.rows_sent, s.rows_suppressed
            );
        }
    }
    let wire = report.wire;
    println!(
        "  mesh total: {} frames, {} bytes ({:.1} bytes/iteration); delta \
         suppression skipped {} of {} rows",
        wire.frames,
        wire.bytes,
        wire.bytes as f64 / 4000.0,
        wire.rows_suppressed,
        wire.rows_sent + wire.rows_suppressed,
    );
    println!(
        "\nthe mesh admits {:.3} of 10 offered — the same equilibrium the\n\
         monolithic simulation reached above, with every exchanged value\n\
         having crossed an encode → decode round trip; incidents: {}",
        report.admitted[0],
        mesh.incidents().len()
    );
    Ok(())
}
