//! A wire servent runs on one thread, however many links it holds.
//!
//! One `WireServent` with 32 overlay neighbours of lower id, which the test
//! plays: it dials all 32 and holds the links. Once every link has the
//! servent's minute-0 frames, the process may hold at most two threads more
//! than before the servent started: the servent's loop, and one hello
//! thread that has not yet exited.
//!
//! The file holds one `#[test]` because `/proc/self/task` counts every
//! thread of the test process, a second test's included.

use ddp_protocol::{decode_message, Payload};
use ddp_servent::wire::conn::dial;
use ddp_servent::wire::{WireConfig, WireServent};
use ddp_servent::{Servent, ServentConfig, ServentRole};
use ddp_topology::NodeId;
use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const LINKS: u32 = 32;
/// Above every neighbour's id, so the neighbours dial.
const SERVENT: u32 = 100;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("a Linux /proc").count()
}

/// Read `link` until the servent's neighbor list arrives.
fn await_list(link: &mut TcpStream) {
    link.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut inbound = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = link.read(&mut chunk).expect("the list within the timeout");
        assert!(n > 0, "the servent closed the link");
        inbound.extend_from_slice(&chunk[..n]);
        let mut buf = bytes::Bytes::from(inbound.clone());
        while let Ok(msg) = decode_message(&mut buf) {
            if matches!(msg.payload, Payload::NeighborList(_)) {
                return;
            }
        }
    }
}

#[test]
fn the_thread_count_is_flat_in_the_number_of_links() {
    let before = threads();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let servent = Servent::new(NodeId(SERVENT), ServentRole::Good, ServentConfig::default());
    let cfg = WireConfig {
        tick_ms: 4_000,
        connect_grace_ms: 500,
        drain_timeout_ms: 500,
        ..WireConfig::default()
    };
    let overlay: Vec<u32> = (0..LINKS).collect();
    let mut ws =
        WireServent::new(servent, listener, HashMap::new(), &overlay, cfg, Vec::new(), 0.0, 7)
            .unwrap();
    let running = std::thread::spawn(move || ws.run(0));

    let mut links: Vec<TcpStream> =
        overlay.iter().map(|&id| dial(addr, id, 0, 1_000, 1_000).unwrap().0).collect();
    for link in &mut links {
        await_list(link);
    }
    // Hello threads exit once they have handed their socket over.
    let settle = Instant::now() + Duration::from_secs(1);
    let mut added = threads() - before;
    while added > 2 && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(10));
        added = threads() - before;
    }
    assert!(added <= 2, "the servent runs {added} threads for {LINKS} links");

    drop(links);
    let report = running.join().unwrap();
    assert_eq!(report.conn.accepts, u64::from(LINKS));
}
