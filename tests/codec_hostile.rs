//! Hostile input for every public decoder built on `lcc_obs::codec`
//! (DESIGN.md §5p; the socket backend's private control frames get the
//! same treatment in `socket.rs`'s unit tests).
//!
//! Each decoder is fed every strict prefix of a valid encoding, that
//! encoding with each 4- and 8-byte window forged to `u32::MAX` /
//! `u64::MAX` (so every count and length field, wherever it sits), and
//! seeded random byte strings. Each input must come back as a typed error
//! or as a value that re-encodes to exactly that input (a prefix of an
//! open-ended layout can itself be a valid message). A panic, or an abort
//! on a forged count, fails the test.

use lcc_comm::transport::frame::{
    decode_epoch, decode_owned, decode_view, encode_ack, encode_data, encode_epoch,
    encode_heartbeat, WireFrame, WireFrameView,
};
use lcc_comm::{
    encode_complex, encode_f64s, try_decode_complex, try_decode_f64s, CommStatsSnapshot,
    LivenessStats,
};
use lcc_core::prelude::*;
use lcc_fft::c64;
use lcc_grid::{decompose_uniform, BoxRegion, Grid3, Sym3};
use lcc_massif::{checkpoint, Checkpoint, TensorField};
use lcc_obs::codec::hex;
use lcc_obs::span::intern;
use lcc_obs::{ObsReport, SpanRecord};
use lcc_octree::{RateSchedule, SamplingPlan};
use lcc_service::wire::{
    decode_message, decode_request, encode_reject, encode_request, encode_response,
    ConvolveRequest, ConvolveResponse, RejectNotice, RequestInput, ServedMode, TenantId,
    WireMessage,
};

/// Prefixes, forged windows and random strings derived from `valid`.
fn hostile_inputs(valid: &[u8]) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
    for width in [4, 8] {
        for at in 0..(valid.len() + 1).saturating_sub(width) {
            let mut forged = valid.to_vec();
            forged[at..at + width].fill(0xFF);
            inputs.push(forged);
        }
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for case in 0..256 {
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        };
        inputs.push((0..case % 97).map(|_| next()).collect());
    }
    inputs
}

/// Runs `reencode` (decode, then encode what decoded) over the hostile
/// inputs of `valid`.
fn assert_total<E>(valid: &[u8], reencode: impl Fn(&[u8]) -> Result<Vec<u8>, E>) {
    for input in hostile_inputs(valid) {
        if let Ok(again) = reencode(&input) {
            assert_eq!(hex(&again), hex(&input), "decoded to another encoding");
        }
    }
}

fn encode_view(view: WireFrameView<'_>) -> Vec<u8> {
    match view {
        WireFrameView::Data {
            seq,
            attempt,
            payload,
        } => encode_data(seq, attempt, payload),
        WireFrameView::Ack { seq, k } => encode_ack(seq, k),
        WireFrameView::Heartbeat { beat } => encode_heartbeat(beat),
    }
}

#[test]
fn frame_decoders() {
    for valid in [
        encode_data(9, 2, &[1, 2, 3]),
        encode_ack(5, 9),
        encode_heartbeat(3),
    ] {
        assert_total(&valid, |b| decode_view(b).map(encode_view));
        assert_total(&valid, |b| {
            decode_owned(b.to_vec()).map(|f| match f {
                WireFrame::Data {
                    seq,
                    attempt,
                    payload,
                } => encode_data(seq, attempt, &payload),
                WireFrame::Ack { seq, k } => encode_ack(seq, k),
                WireFrame::Heartbeat { beat } => encode_heartbeat(beat),
            })
        });
    }
    assert_total(&encode_epoch(4, &[1, 2]), |b| {
        decode_epoch(b).map(|(e, p)| encode_epoch(e, p))
    });
}

#[test]
fn comm_payload_decoders() {
    let snapshot = CommStatsSnapshot {
        bytes_sent: 1,
        acks: 9,
        ..CommStatsSnapshot::default()
    };
    assert_total(&snapshot.to_bytes(), |b| {
        CommStatsSnapshot::from_bytes(b).map(|s| s.to_bytes())
    });
    let liveness = LivenessStats {
        heartbeats_sent: 1,
        rejoins: 6,
        ..LivenessStats::default()
    };
    assert_total(&liveness.to_bytes(), |b| {
        LivenessStats::from_bytes(b).map(|s| s.to_bytes()).ok_or(())
    });
    assert_total(&encode_f64s(&[1.0, -2.5]), |b| {
        try_decode_f64s(b).map(|v| encode_f64s(&v))
    });
    assert_total(&encode_complex(&[c64(1.0, -2.0)]), |b| {
        try_decode_complex(b).map(|v| encode_complex(&v))
    });
}

#[test]
fn service_message_decoders() {
    let deltas = ConvolveRequest {
        tenant: TenantId(7),
        request_id: 99,
        n: 16,
        k: 4,
        far_rate: 8,
        sigma: 1.25,
        require_exact: false,
        checksum_only: true,
        input: RequestInput::Deltas(vec![(1, 2, 3, 1.0), (5, 5, 5, -2.5)]),
    };
    let dense = ConvolveRequest {
        n: 2,
        k: 1,
        input: RequestInput::Dense(vec![0.5; 8]),
        ..deltas.clone()
    };
    let resp = ConvolveResponse {
        tenant: TenantId(3),
        request_id: 12,
        mode: ServedMode::Normal,
        checksum: 7,
        result: vec![1.0, -0.5],
    };
    let reject = RejectNotice {
        tenant: TenantId(3),
        request_id: 12,
        code: 1,
        a: 64,
        b: 64,
    };
    for valid in [
        encode_request(&deltas),
        encode_request(&dense),
        encode_response(&resp),
        encode_reject(&reject),
    ] {
        assert_total(&valid, |b| {
            decode_message(b).map(|m| match m {
                WireMessage::Request(r) => encode_request(&r),
                WireMessage::Response(r) => encode_response(&r),
                WireMessage::Reject(r) => encode_reject(&r),
            })
        });
        assert_total(&valid, |b| decode_request(b).map(|r| encode_request(&r)));
    }
}

#[test]
fn exchange_frame_decoder() {
    let (n, k) = (16, 8);
    let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
    let kernel = GaussianKernel::new(n, 1.0);
    let mut input = Grid3::zeros((n, n, n));
    input[(1, 1, 9)] = 1.0;
    let session = conv.session(ConvolveMode::Normal);
    let field = session.compress_domain(&input, &decompose_uniform(n, k)[1], &kernel);
    // The frame for a one-cell region (528 bytes): every prefix and
    // forgery of a whole-cube frame would take tens of seconds.
    let region = BoxRegion::new([0; 3], [1; 3]);
    let frame = session.encode_frame([(1, field.as_ref().expect("nonzero"))], &region);
    assert_total(&frame, |b| {
        session
            .decode_frame(b, &kernel, &region, 0, 1, |id| id % 2 == 1)
            .map(|fields| session.encode_frame(fields.iter().map(|(id, f)| (*id, f)), &region))
    });
}

#[test]
fn checkpoint_loader() {
    let mut strain = TensorField::zeros(1);
    strain.set(0, 0, 0, Sym3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0));
    let chk = Checkpoint {
        n: 1,
        iteration: 3,
        residuals: vec![0.5],
        strain,
    };
    let dir = std::env::temp_dir();
    let path = dir.join(format!("codec_hostile_{}.ckpt", std::process::id()));
    checkpoint::write(&path, &chk).expect("write");
    let valid = std::fs::read(&path).expect("read");
    let (probe, copy) = (path.with_extension("probe"), path.with_extension("copy"));
    assert_total(&valid, |b| {
        std::fs::write(&probe, b).expect("write probe");
        checkpoint::load(&probe).map(|c| {
            checkpoint::write(&copy, &c).expect("write copy");
            std::fs::read(&copy).expect("read copy")
        })
    });
    for p in [path, probe, copy] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn obs_capture_decoder() {
    let span = |id, name| SpanRecord {
        id,
        parent: id - 1,
        name: intern(name),
        start_ns: 10,
        dur_ns: 500,
        thread: 1,
        rank: -1,
        epoch: 2,
    };
    let report = ObsReport {
        spans: vec![span(1, "convolve"), span(2, "stage2_pencils")],
        counters: vec![("comm.bytes_logical".to_string(), 4096)],
        gauges: vec![("massif.residual".to_string(), 1.5e-7)],
        wall_ns: 12345,
    };
    assert_total(&report.to_bytes(), |b| {
        ObsReport::from_bytes(b).map(|r| r.to_bytes())
    });
}

#[test]
fn packed_plan_decoder() {
    let domain = BoxRegion::new([4; 3], [8; 3]);
    let plan = SamplingPlan::build(16, domain, &RateSchedule::paper_default(4, 4));
    assert_total(&plan.encode_packed(), |b| {
        SamplingPlan::decode_packed(16, domain, b).map(|p| p.encode_packed())
    });
}
