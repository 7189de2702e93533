//! Copy accounting of the bare two-endpoint fabric: an 8-byte ping-pong whose
//! pong re-injects the ping's own buffer, and a stream of clones of one
//! 256 KiB payload. Each injected message is materialized exactly once.

use net_sim::fabric::{Fabric, FabricConfig};
use net_sim::stats::StatsSnapshot;
use net_sim::{MatchSpec, PayloadBuf};

const PING_ROUNDS: usize = 2_000;
const STREAM_MESSAGES: usize = 256;
const STREAM_PAYLOAD_BYTES: usize = 256 * 1024;

fn ping_pong(nonce: u64) -> StatsSnapshot {
    let fabric = Fabric::new(FabricConfig::new(2, nonce));
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let context = fabric.allocate_context();
    let ping = MatchSpec::from_mpi_args(context, 0, 1);
    let pong = MatchSpec::from_mpi_args(context, 1, 2);
    for _ in 0..PING_ROUNDS {
        a.send(1, 0, context, 1, vec![0u8; 8]).unwrap();
        let m = b.try_recv(&ping).unwrap().expect("eager delivery");
        b.send(0, 1, context, 2, m.payload).unwrap();
        a.try_recv(&pong).unwrap().expect("eager delivery");
    }
    fabric.stats()
}

fn stream(nonce: u64) -> StatsSnapshot {
    let fabric = Fabric::new(FabricConfig::new(2, nonce));
    let a = fabric.endpoint(0).unwrap();
    let b = fabric.endpoint(1).unwrap();
    let context = fabric.allocate_context();
    let bytes: Vec<u8> = (0..STREAM_PAYLOAD_BYTES).map(|i| (i % 251) as u8).collect();
    let payload = PayloadBuf::from(bytes);
    let spec = MatchSpec::from_mpi_args(context, 0, 7);
    for _ in 0..STREAM_MESSAGES {
        a.send(1, 0, context, 7, payload.clone()).unwrap();
    }
    for _ in 0..STREAM_MESSAGES {
        let envelope = b.try_recv(&spec).unwrap().expect("eager delivery");
        assert_eq!(envelope.len(), STREAM_PAYLOAD_BYTES);
    }
    fabric.stats()
}

#[test]
fn fabric_bench_passes_and_renders() {
    let (mut sent, mut copied) = (0, 0);
    for stats in [ping_pong(1_000), stream(2_000)] {
        sent += stats.bytes_sent;
        copied += stats.bytes_copied;
    }
    assert!(sent > 0);
    assert_eq!(
        copied, sent,
        "copy amplification: {sent} B sent but {copied} B copied"
    );
}
