//! Runners with closed-form or single-node content: Table 1, Figure 2,
//! Figures 5 and 6.

use crate::output::{f, pct, Table};
use ddp_protocol::{encode_message, Guid, Message, NeighborTraffic, Payload};
use ddp_testbed::ChainExperiment;
use std::net::Ipv4Addr;

/// Table 1: the `Neighbor_Traffic` message body, field by field, with byte
/// offsets taken from an actual encoding.
pub fn table1() -> Table {
    let nt = NeighborTraffic {
        source_ip: Ipv4Addr::new(10, 0, 0, 1),
        suspect_ip: Ipv4Addr::new(10, 0, 0, 2),
        timestamp: 1_185_000_000, // a 2007 timestamp, in the paper's spirit
        outgoing_queries: 412,
        incoming_queries: 5_204,
    };
    let msg = Message::new(Guid::derived(1, 1), 1, Payload::NeighborTraffic(nt));
    let wire = encode_message(&msg);
    let body = &wire[ddp_protocol::HEADER_LEN..];

    let fields: [(&str, usize, usize, String); 5] = [
        ("Source IP Address", 0, 4, nt.source_ip.to_string()),
        ("Suspect IP Address", 4, 4, nt.suspect_ip.to_string()),
        ("Source timestamp", 8, 4, nt.timestamp.to_string()),
        ("# of Outgoing queries", 12, 4, nt.outgoing_queries.to_string()),
        ("# of Incoming queries", 16, 4, nt.incoming_queries.to_string()),
    ];
    let header_row = vec![
        "(unified Gnutella header)".into(),
        "-23".into(),
        "23".into(),
        format!("GUID + type 0x{:02x} + TTL + hops + length", msg.header.kind as u8),
    ];
    Table::from_rows(
        "table1_neighbor_traffic",
        "Table 1: Neighbor_Traffic message body (payload type 0x83)",
        &["field", "byte offset", "bytes", "encoded value"],
        fields
            .into_iter()
            .map(|(name, off, len, val)| {
                let hex: String = body[off..off + len].iter().map(|b| format!("{b:02x}")).collect();
                vec![name.into(), off.to_string(), format!("{len} (0x{hex})"), val]
            })
            .chain([header_row]),
    )
}

/// Figure 2: the indicator worked example — peer j with three neighbors,
/// `g(j,t) = s(j,t,i) = q0 / q`.
pub fn fig2() -> Table {
    let q = 10u32;
    Table::from_rows(
        "fig2_indicator_example",
        "Figure 2: indicator worked example (k = 3 neighbors, q = 10/min)",
        &["q0 issued by j", "g(j,t)", "s(j,t,i)", "expected q0/q"],
        [5.0, 100.0, 5_000.0, 20_000.0].map(|q0| {
            let (q1, q2, q3) = (40.0, 70.0, 25.0);
            let out1 = q0 + q2 + q3;
            let out2 = q0 + q1 + q3;
            let out3 = q0 + q1 + q2;
            let g =
                ddp_police::indicator::general_indicator(out1 + out2 + out3, q1 + q2 + q3, 3, q);
            let s = ddp_police::indicator::single_indicator(out1, q2 + q3, q);
            vec![f(q0, 0), f(g, 1), f(s, 1), f(q0 / q as f64, 1)]
        }),
    )
}

/// Figure 5: queries sent by peer A vs processed by peer B.
pub fn fig5() -> Table {
    Table::from_rows(
        "fig5_sent_vs_processed",
        "Figure 5: queries sent out vs processed per minute (section 2.3 testbed)",
        &["sent/min", "processed/min", "dropped/min"],
        ChainExperiment::default().paper_sweep().iter().map(|p| {
            vec![p.sent_qpm.to_string(), p.processed_qpm.to_string(), p.dropped_qpm.to_string()]
        }),
    )
}

/// Figure 6: query drop rate vs query density at peer B.
pub fn fig6() -> Table {
    Table::from_rows(
        "fig6_drop_rate",
        "Figure 6: query drop rate vs query density (section 2.3 testbed)",
        &["received/min", "drop rate"],
        ChainExperiment::default()
            .paper_sweep()
            .iter()
            .map(|p| vec![p.sent_qpm.to_string(), pct(p.drop_rate)]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_fields_plus_header_row() {
        let t = table1();
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.rows[0][1], "0");
        assert_eq!(t.rows[4][1], "16");
    }

    #[test]
    fn fig2_matches_q0_over_q() {
        let t = fig2();
        for row in &t.rows {
            assert_eq!(row[1], row[3], "g must equal q0/q");
            assert_eq!(row[2], row[3], "s must equal q0/q");
        }
    }

    #[test]
    fn fig5_knee_at_15k() {
        let t = fig5();
        let knee: Vec<_> = t.rows.iter().filter(|r| r[2] != "0").collect();
        assert_eq!(knee.first().unwrap()[0], "16000", "drops start just past 15k");
    }

    #[test]
    fn fig6_terminal_drop_rate() {
        let t = fig6();
        assert_eq!(t.rows.last().unwrap()[1], "48.3%"); // 1 - 15000/29000
    }
}
