//! Seeded model test of the driver's read oracle (`hyrd::driver::oracle`):
//! random create / update histories applied to the run list and to a
//! plain `Vec<u8>` side by side. Whatever the history, `matches(bytes)`
//! is `bytes == model` — for the model itself, for a single flipped bit
//! at every run boundary and one byte either side of it, and for one byte
//! more or less — the runs materialise back into the model, and there are
//! never more than two per update plus one.

use hyrd::driver::oracle::Expected;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The verdicts on `model` itself and on every near miss of it.
fn check(file: &Expected, model: &[u8], when: &str) {
    assert_eq!(file.len(), model.len() as u64, "{when}: length");
    assert_eq!(file.to_vec(), model, "{when}: the runs materialise into the model");
    assert!(file.matches(model), "{when}: the model itself is refused");

    // A run boundary is wherever the model changes byte, and both ends.
    let boundaries =
        (0..=model.len()).filter(|&i| i == 0 || i == model.len() || model[i - 1] != model[i]);
    let mut wrong = model.to_vec();
    for at in boundaries.flat_map(|b| [b.wrapping_sub(1), b, b + 1]) {
        if at < model.len() {
            let bit = 1 << (at % 8);
            wrong[at] ^= bit;
            assert!(!file.matches(&wrong), "{when}: bit {bit:#x} of byte {at} flipped unseen");
            wrong[at] ^= bit;
        }
    }

    let longer = [model, &model[model.len().saturating_sub(1)..]].concat();
    assert!(model.is_empty() || !file.matches(&longer), "{when}: one byte more accepted");
    if let Some((_, shorter)) = model.split_last() {
        assert!(!file.matches(shorter), "{when}: one byte less accepted");
    }
}

fn run(seed: u64) {
    let mut rng = SplitMix64(seed);
    // A few lengths are tiny, so windows cover whole files and whole runs.
    let len = if seed.is_multiple_of(4) { rng.below(9) } else { 1 + rng.below(700) };
    // Few distinct fills, so equal neighbours meet and coalesce.
    let fill = |rng: &mut SplitMix64| rng.below(4) as u8;
    let first = fill(&mut rng);
    let mut file = Expected::filled(len as u64, first);
    let mut model = vec![first; len];
    check(&file, &model, &format!("seed {seed} created"));

    let updates = rng.below(40);
    for update in 1..=updates {
        let offset = rng.below(len + 1);
        // Short windows mostly, so runs pile up; a long one now and then
        // swallows several.
        let longest = if rng.below(4) == 0 { len - offset } else { (len - offset).min(24) };
        let window = rng.below(longest + 1);
        let byte = fill(&mut rng);
        file.patch(offset as u64, window as u64, byte);
        model[offset..offset + window].fill(byte);
        check(&file, &model, &format!("seed {seed} update {update} ({offset}+{window})"));
        assert!(
            file.run_count() <= 2 * update + 1,
            "seed {seed}: {} runs after {update} updates",
            file.run_count()
        );
        let changes = model.windows(2).filter(|pair| pair[0] != pair[1]).count();
        let minimal = if model.is_empty() { 0 } else { changes + 1 };
        assert_eq!(file.run_count(), minimal, "seed {seed}: a boundary between equal fills");
    }
}

#[test]
fn the_run_list_gives_the_verdict_of_the_materialised_bytes() {
    for seed in 0..400 {
        run(seed);
    }
}
