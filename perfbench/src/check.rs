//! Correctness checks that rest on the benchmark's own ledgers and
//! recomputations, or on properties SBC must have — never on a stored
//! copy of earlier output.

use sbc_primitives::sha256::Sha256;
use sbc_service::Outcome;

/// Collects failed checks; a run is correct when none failed.
#[derive(Default)]
pub struct Checks {
    failed: usize,
    /// The first few failure messages; the count is what matters.
    messages: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0
    }

    /// Prints the failures to stderr.
    pub fn report(&self) {
        for m in &self.messages {
            eprintln!("check failed: {m}");
        }
        if self.failed > self.messages.len() {
            eprintln!("... {} failed checks in all", self.failed);
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FIPS 180-4 known answers (the examples of the Secure Hash Standard
/// and its one-million-`a` test): the digest the beacon recomputation
/// relies on must be SHA-256 before it is trusted.
pub fn sha256_known_answers(checks: &mut Checks) {
    let million_a = vec![b'a'; 1_000_000];
    let cases: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for (input, want) in cases {
        let got = hex(&Sha256::digest(input));
        checks.require(got == want, || {
            format!("SHA-256 of a {}-byte input: {got} != {want}", input.len())
        });
    }
}

/// The beacon value recomputed from the payloads the benchmark submitted:
/// XOR of their SHA-256 digests.
pub fn beacon_value<'a>(payloads: impl Iterator<Item = &'a [u8]>) -> [u8; 32] {
    let mut acc = [0u8; 32];
    for p in payloads {
        for (a, d) in acc.iter_mut().zip(Sha256::digest(p)) {
            *a ^= d;
        }
    }
    acc
}

/// The election result recounted from the benchmark's own vote ledger:
/// most votes wins, ties go to the lowest candidate id.
pub fn recount(votes: impl Iterator<Item = u8>) -> Outcome {
    let mut tally = [0u64; 256];
    for v in votes {
        tally[v as usize] += 1;
    }
    let mut winner = 0usize;
    for (id, &count) in tally.iter().enumerate() {
        if count > tally[winner] {
            winner = id;
        }
    }
    Outcome::Election {
        winner: winner as u8,
        votes: tally[winner],
    }
}
