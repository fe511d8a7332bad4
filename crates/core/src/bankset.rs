//! Sets of global banks, one bit per bank in 64-bank words, and the one
//! walk over such words. The controller's occupied slots and the
//! baseline policies' queued work are bank sets; Burst keeps its four
//! arbiter classes word by word and walks them the same way. A channel's
//! banks may span several words (128 banks per channel take two), so
//! every walk and count takes a bank range, not a word.

use core::ops::Range;

/// A set of global banks: bank `b` is bit `b & 63` of word `b >> 6`.
/// Derived state wherever it is used, so it is never serialised.
#[derive(Debug)]
pub(crate) struct BankSet(Vec<u64>);

/// The bit of `bank` within its word.
fn bit(bank: usize) -> u64 {
    1 << (bank & 63)
}

impl BankSet {
    /// The empty set over `banks` banks.
    pub(crate) fn new(banks: usize) -> Self {
        BankSet(vec![0; banks.div_ceil(64)])
    }

    /// Word `w`: banks `64 * w..64 * (w + 1)`.
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.0[w]
    }

    /// How many words the set holds.
    pub(crate) fn words(&self) -> usize {
        self.0.len()
    }

    /// Adds `bank`.
    pub(crate) fn insert(&mut self, bank: usize) {
        self.0[bank >> 6] |= bit(bank);
    }

    /// Removes `bank`.
    pub(crate) fn remove(&mut self, bank: usize) {
        self.0[bank >> 6] &= !bit(bank);
    }

    /// Adds (`on`) or removes `bank`.
    pub(crate) fn set(&mut self, bank: usize, on: bool) {
        if on {
            self.insert(bank);
        } else {
            self.remove(bank);
        }
    }

    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        self.0.fill(0);
    }

    /// How many banks of `range` the set holds.
    pub(crate) fn count_in(&self, range: Range<usize>) -> usize {
        let mut n = 0;
        let mut bank = range.start;
        while bank < range.end {
            let w = bank >> 6;
            let below_end = match range.end - (w << 6) {
                end if end >= 64 => u64::MAX,
                end => (1 << end) - 1,
            };
            n += (self.0[w] & below_end & (u64::MAX << (bank & 63))).count_ones() as usize;
            bank = (w + 1) << 6;
        }
        n
    }
}

/// The least bank of `from..end` set in its word as `word` gives it
/// (word `w` covers banks `64 * w..64 * (w + 1)`), or `None`. `word` is
/// called once per word it inspects, so a caller may hand in a word
/// computed from live state and re-ask after each bank it visits.
pub(crate) fn next_in(
    mut from: usize,
    end: usize,
    mut word: impl FnMut(usize) -> u64,
) -> Option<usize> {
    while from < end {
        let shifted = word(from >> 6) >> (from & 63);
        if shifted == 0 {
            from = (from | 63) + 1;
            continue;
        }
        let found = from + shifted.trailing_zeros() as usize;
        return (found < end).then_some(found);
    }
    None
}

/// The banks set in word `w`'s bits `word`, in ascending order.
pub(crate) fn members(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    core::iter::from_fn(move || {
        (word != 0).then(|| {
            let bank = (w << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            bank
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_and_counts_match_a_bool_per_bank_across_word_boundaries() {
        let mut state = 5u64;
        for trial in 0..400 {
            state = crate::splitmix64(state);
            let banks = 1 + (state % 300) as usize;
            let mut set = BankSet::new(banks);
            let mut plain = vec![false; banks];
            for _ in 0..banks {
                state = crate::splitmix64(state);
                let bank = (state % banks as u64) as usize;
                let on = state & (1 << 40) != 0;
                set.set(bank, on);
                plain[bank] = on;
            }
            state = crate::splitmix64(state);
            let start = (state % banks as u64) as usize;
            let end = start + ((state >> 20) % (banks - start) as u64) as usize + 1;
            let want: Vec<usize> = (start..end).filter(|&b| plain[b]).collect();
            assert_eq!(set.count_in(start..end), want.len(), "trial {trial}");
            let mut walked = Vec::new();
            let mut from = start;
            while let Some(b) = next_in(from, end, |w| set.word(w)) {
                walked.push(b);
                from = b + 1;
            }
            assert_eq!(walked, want, "trial {trial}: walk of {start}..{end}");
            let all: Vec<usize> = (0..set.words())
                .flat_map(|w| members(w, set.word(w)))
                .collect();
            let want_all: Vec<usize> = (0..banks).filter(|&b| plain[b]).collect();
            assert_eq!(all, want_all, "trial {trial}: members");
        }
    }
}
