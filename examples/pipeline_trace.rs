//! Watch a packet traverse the SMART pipeline cycle by cycle, and dump
//! the activity as a VCD waveform — the reproduction's analogue of the
//! paper's VCD-based power flow.
//!
//! ```text
//! cargo run --example pipeline_trace
//! ```

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::SmartNoc;
use smart_noc::arch::scenarios::fig7_flows;
use smart_noc::sim::{FlowId, PacketId, ScriptedTraffic, SourceRoute};
use std::fs;

fn main() -> std::io::Result<()> {
    let cfg = NocConfig::paper_4x4();
    let flows = fig7_flows(cfg.topology);
    let routes: Vec<(FlowId, SourceRoute)> =
        flows.iter().map(|(f, r, _)| (*f, r.clone())).collect();
    let mut noc = SmartNoc::new(&cfg, &routes);
    noc.network_mut().enable_tracing(10_000);

    // One blue packet (the stop-twice flow of Fig 7).
    let blue = flows[3].0;
    let mut traffic = ScriptedTraffic::new(
        vec![(0, blue)],
        cfg.flits_per_packet(),
        noc.network().flows(),
        cfg.topology,
    );
    noc.network_mut().run_with(&mut traffic, 60);

    let tracer = noc.network().tracer().expect("tracing enabled");
    println!("journey of the blue packet (8 -> 9 -> 10 -> 11 -> 7 -> NIC3):\n");
    print!("{}", tracer.journey(PacketId(0)));
    println!(
        "\n({} events recorded, {} dropped)",
        tracer.records().len(),
        tracer.dropped()
    );

    let vcd = tracer.to_vcd(cfg.topology, "smart_mesh_4x4");
    let path = "target/generated/activity.vcd";
    fs::create_dir_all("target/generated")?;
    fs::write(path, &vcd)?;
    println!(
        "\nwrote {} ({} lines) — openable in any VCD viewer",
        path,
        vcd.lines().count()
    );
    Ok(())
}
