//! Byte goldens for every public `lcc-comm` format: each layout is pinned
//! byte for byte, so a change that moves a field on both the encode and the
//! decode side (which every round-trip test accepts) fails here. Hostile
//! input for these decoders is in `tests/codec_hostile.rs`.

use lcc_comm::transport::frame::{encode_ack, encode_data, encode_epoch, encode_heartbeat};
use lcc_comm::{encode_complex, encode_f64s, CommStatsSnapshot, LivenessStats};
use lcc_fft::c64;
use lcc_obs::codec::hex;

fn snapshot() -> CommStatsSnapshot {
    CommStatsSnapshot {
        bytes_sent: 1,
        messages: 2,
        collective_rounds: 3,
        retransmits: 4,
        duplicates_suppressed: 5,
        timeouts: 6,
        bytes_physical: 7,
        messages_physical: 8,
        acks: 9,
    }
}

fn liveness() -> LivenessStats {
    LivenessStats {
        heartbeats_sent: 1,
        heartbeats_received: 2,
        hard_evidence: 3,
        suspicions: 4,
        deaths_detected: 5,
        rejoins: 6,
    }
}

#[test]
fn frame_goldens() {
    assert_eq!(
        hex(&encode_data(0x0102_0304_0506_0708, 7, &[0xaa, 0xbb])),
        "01080706050403020107000000aabb"
    );
    assert_eq!(hex(&encode_ack(5, 9)), "0205000000000000000900000000000000");
    assert_eq!(hex(&encode_heartbeat(3)), "030300000000000000");
    assert_eq!(hex(&encode_epoch(4, &[1, 2])), "04000000000000000102");
}

#[test]
fn stats_and_payload_goldens() {
    assert_eq!(
        hex(&snapshot().to_bytes()),
        "0100000000000000020000000000000003000000000000000400000000000000\
         0500000000000000060000000000000007000000000000000800000000000000\
         0900000000000000"
    );
    assert_eq!(
        hex(&liveness().to_bytes()),
        "0100000000000000020000000000000003000000000000000400000000000000\
         05000000000000000600000000000000"
    );
    assert_eq!(
        hex(&encode_f64s(&[1.0, -2.5])),
        "000000000000f03f00000000000004c0"
    );
    assert_eq!(
        hex(&encode_complex(&[c64(1.0, -2.0)])),
        "000000000000f03f00000000000000c0"
    );
}
