// Fixture: rule 8 violations — unchecked indexing outside the modules that
// hold the check bounding it. Rule 1 is satisfied so only rule 8 fires.
// (Never compiled; scanned by tests/fixtures.rs only.)

fn sum_at(xs: &[f32], idx: &[usize]) -> f32 {
    let mut s = 0.0;
    for &i in idx {
        // SAFETY: (fixture) trusts `idx` without any check that bounds it.
        s += unsafe { *xs.get_unchecked(i) };
    }
    s
}

fn bump_first(xs: &mut [f32]) {
    // SAFETY: (fixture) assumes a non-empty slice.
    unsafe { *xs.get_unchecked_mut(0) += 1.0 };
}

fn scatter(slots: &Slots, acc: &Slots, i: usize) {
    // SAFETY: (fixture) the bounds proof lives nowhere near this loop.
    unsafe {
        slots.write_unchecked(i, 1.0);
        acc.update_unchecked(i, |a| *a += 1.0);
    }
}
