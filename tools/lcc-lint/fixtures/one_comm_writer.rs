// lcc-lint: pretend-path crates/comm/src/comm_writer_fixture.rs
//
// Fixture for the `one-comm-writer` rule: the comm and liveness obs
// counters are written only by `CommStats::add`, which counts into the
// run's table and the obs counter in one call. Never compiled — scanned by
// `lcc-lint --self-test`.

use lcc_obs::metrics as obs;
use lcc_obs::metrics::COMM_ACKS; //~ ERROR one-comm-writer

fn a_second_count(stats: &CommStats, n: u64) {
    stats.add(CommCounter::BytesSent, n);
    obs::COMM_BYTES_LOGICAL.add(n); //~ ERROR one-comm-writer
}

fn a_board_event_counted_by_hand() {
    lcc_obs::metrics::LIVENESS_SUSPICIONS.incr(); //~ ERROR one-comm-writer
}

fn reading_is_naming_too() -> u64 {
    COMM_ACKS.get() //~ ERROR one-comm-writer
}

fn the_fix(stats: &CommStats) -> u64 {
    stats.add(CommCounter::Acks, 1);
    stats.ack_count()
}

fn strings_and_comments_do_not_count() {
    // obs::COMM_ACKS.incr() in a comment is prose, not code.
    let _s = "LIVENESS_REJOINS";
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_the_counters() {
        let _ = lcc_obs::metrics::COMM_BYTES_LOGICAL.get();
    }
}
