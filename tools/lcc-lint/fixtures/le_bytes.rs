// lcc-lint: pretend-path crates/massif/src/le_bytes_fixture.rs
//
// Fixture for the `le-bytes` rule: byte order belongs to `lcc_obs::codec`
// alone. Never compiled — scanned by `lcc-lint --self-test`.

fn hand_rolled_writer(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes()); //~ ERROR le-bytes
}

fn hand_rolled_reader(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) //~ ERROR le-bytes
}

fn decoder_as_a_path(words: &[[u8; 8]]) -> Vec<f64> {
    words.iter().copied().map(f64::from_le_bytes).collect() //~ ERROR le-bytes
}

fn the_fix(out: &mut Vec<u8>, bytes: &[u8]) -> Result<u32, CodecError> {
    out.put_u64(7);
    Reader::new(bytes).u32()
}

fn strings_and_comments_do_not_count() {
    // v.to_le_bytes() in a comment is prose, not code.
    let _s = "u32::from_le_bytes";
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_forge_bytes() {
        let mut frame = vec![0u8; 8];
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    }
}
