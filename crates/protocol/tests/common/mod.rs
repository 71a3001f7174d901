// The message strategy of `ddp-servent`'s reassembly proptest
// (`src/wire/framing.rs`), which `include!`s this file, shared with the codec
// proptests so that both suites draw the same frames. Plain comments only:
// an inner doc comment cannot be `include!`d.

/// Frames from 23 bytes to most of the 64 KiB cap, so that reads split
/// headers, split payloads, and carry many frames at once.
pub fn arb_message() -> impl proptest::strategy::Strategy<Value = ddp_protocol::Message> {
    use ddp_protocol::{Guid, Message, NeighborList, Payload, PeerAddr, Ping, Query};
    use proptest::prelude::*;
    let payload = prop_oneof![
        3 => Just(Payload::Ping(Ping)),
        6 => "[a-z0-9-]{0,40}"
            .prop_map(|criteria| Payload::Query(Query { min_speed: 0, criteria })),
        1 => (0u32..10_000).prop_map(|n| {
            let neighbors = (0..n).map(PeerAddr::from_node_index).collect();
            Payload::NeighborList(NeighborList { neighbors })
        }),
    ];
    (payload, any::<u64>()).prop_map(|(p, seq)| Message::new(Guid::derived(2, seq), 4, p))
}
