//! Transaction selection strategies, including the paper's Table 2
//! priority table.
//!
//! Every cycle, each mechanism picks at most one unblocked transaction per
//! channel from the banks' ongoing accesses. Burst scheduling uses the
//! static priority table (Table 2); BkInOrder and RowHit use inter-bank
//! round-robin; Intel's scheduler finishes started accesses first.

use crate::engine::Candidate;
use burst_dram::Command;

/// Priority classes of the paper's Table 2 (1 = highest, 8 = lowest).
///
/// Column accesses in the rank last used keep the data bus streaming
/// (priorities 1–4, reads before writes); precharges and activates overlap
/// with data transfers (5–6); column accesses that would switch ranks pay
/// the rank-to-rank turnaround and come last (7–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PriorityTable;

impl PriorityTable {
    /// The Table 2 priority of a candidate transaction given the bank and
    /// rank of the last scheduled access. Lower is more urgent.
    pub fn priority(cand: &Candidate, last_bank: Option<usize>, last_rank: Option<u8>) -> u8 {
        let same_bank = last_bank == Some(cand.bank);
        // With no history yet, treat the first transaction as same-rank:
        // there is no turnaround to avoid.
        let same_rank = match last_rank {
            Some(r) => r == cand.loc.rank,
            None => true,
        };
        let is_read = cand.kind.is_read();
        match cand.cmd {
            Command::Column { .. } => match (is_read, same_bank, same_rank) {
                (true, true, _) => 1,
                (true, false, true) => 2,
                (false, true, _) => 3,
                (false, false, true) => 4,
                (true, false, false) => 7,
                (false, false, false) => 8,
            },
            Command::Activate(_) | Command::Precharge(_) => {
                if is_read {
                    5
                } else {
                    6
                }
            }
            Command::RefreshAll { .. } => 0,
        }
    }
}

/// Burst scheduling's transaction scheduler (paper Figure 6): select the
/// unblocked transaction with the best Table 2 priority, breaking ties
/// oldest-first.
pub fn select_table2(
    cands: &[Candidate],
    last_bank: Option<usize>,
    last_rank: Option<u8>,
) -> Option<Candidate> {
    // Watchdog-escalated accesses outrank the whole table: bounded worst
    // case beats streaming preference once an access is already starved.
    cands
        .iter()
        .min_by_key(|c| {
            (
                !c.escalated,
                PriorityTable::priority(c, last_bank, last_rank),
                c.arrival,
                c.id,
            )
        })
        .copied()
}

/// Round-robin selection across banks (BkInOrder and RowHit) with limited
/// lookahead, as conventional controllers implement it: scan at most
/// `lookahead` banks holding candidates (in cyclic order from `*next_bank`
/// within `bank_range`), issue the first unblocked one and advance the
/// pointer past it. If every inspected candidate is blocked, the cycle is
/// wasted — the "bubble cycles" the paper attributes to schedulers that
/// ignore SDRAM timing constraints. Pass `cands` including blocked
/// candidates (see [`crate::engine::Core::fill_candidates`]).
pub fn select_round_robin_limited(
    cands: &[Candidate],
    next_bank: &mut usize,
    bank_range: core::ops::Range<usize>,
    lookahead: usize,
) -> Option<Candidate> {
    if cands.is_empty() {
        return None;
    }
    let len = bank_range.end - bank_range.start;
    let start = bank_range.start;
    let pointer = (*next_bank).clamp(start, bank_range.end - 1);
    // The bank's distance past the pointer, cyclically: `c.bank` and
    // `pointer` both lie in the range, so one compare replaces `% len`.
    let chosen = select_limited(cands, lookahead, |c| {
        let distance = if c.bank >= pointer {
            c.bank - pointer
        } else {
            c.bank + len - pointer
        };
        (!c.escalated, distance, c.arrival, c.id)
    });
    if let Some(c) = &chosen {
        *next_bank = if c.bank + 1 >= bank_range.end {
            start
        } else {
            c.bank + 1
        };
    }
    chosen
}

/// Intel's selection: started accesses get the highest priority so they
/// finish as quickly as possible (reducing the degree of reordering);
/// otherwise oldest first, reads before writes on ties. Only the first
/// `lookahead` accesses in priority order are considered; if all of them
/// are blocked the cycle bubbles.
pub fn select_intel_limited(cands: &[Candidate], lookahead: usize) -> Option<Candidate> {
    select_limited(cands, lookahead, |c| {
        (!c.escalated, !c.started, c.arrival, !c.kind.is_read(), c.id)
    })
}

/// Limited-lookahead selection by a priority key, lower first: the same
/// choice as sorting `cands` by `key`, keeping the first `lookahead` (at
/// least one) and taking the first unblocked, in O(n) and without
/// allocating. The least-key unblocked candidate is chosen only if fewer
/// than `lookahead` candidates rank ahead of it. Every key ends in the
/// access id, so keys are unique and "ahead" is well defined.
///
/// With no more candidates than the lookahead, fewer than `lookahead`
/// can rank ahead of any pick: the best unblocked one is chosen, and the
/// blocked ones change nothing (the controller leaves them out then).
fn select_limited<K: Ord>(
    cands: &[Candidate],
    lookahead: usize,
    key: impl Fn(&Candidate) -> K,
) -> Option<Candidate> {
    let best = cands
        .iter()
        .filter(|c| c.unblocked)
        .min_by_key(|c| key(c))?;
    let window = lookahead.max(1);
    if cands.len() <= window {
        return Some(*best);
    }
    let best_key = key(best);
    let ahead = cands.iter().filter(|c| key(c) < best_key).count();
    (ahead < window).then_some(*best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessId, AccessKind};
    use burst_dram::{Cycle, Loc};

    fn cand(
        bank: usize,
        rank: u8,
        kind: AccessKind,
        cmd: Command,
        arrival: Cycle,
        id: u64,
        started: bool,
    ) -> Candidate {
        let loc = Loc::new(0, rank, bank as u8, 0, 0);
        Candidate {
            bank,
            cmd,
            loc,
            kind,
            arrival,
            id: AccessId::new(id),
            started,
            unblocked: true,
            escalated: false,
        }
    }

    fn col(loc_rank: u8, bank: usize) -> Command {
        Command::read(Loc::new(0, loc_rank, bank as u8, 0, 0))
    }

    #[test]
    fn table2_read_column_same_bank_wins() {
        let read_same_bank = cand(3, 0, AccessKind::Read, col(0, 3), 10, 1, true);
        let read_same_rank = cand(4, 0, AccessKind::Read, col(0, 4), 1, 2, true);
        let picked = select_table2(&[read_same_rank, read_same_bank], Some(3), Some(0)).unwrap();
        assert_eq!(
            picked.bank, 3,
            "same-bank column beats older same-rank column"
        );
    }

    #[test]
    fn table2_read_column_beats_write_column() {
        let w = cand(
            1,
            0,
            AccessKind::Write,
            Command::write(Loc::new(0, 0, 1, 0, 0)),
            0,
            1,
            true,
        );
        let r = cand(2, 0, AccessKind::Read, col(0, 2), 5, 2, true);
        let picked = select_table2(&[w, r], None, Some(0)).unwrap();
        assert_eq!(picked.bank, 2);
    }

    #[test]
    fn table2_pre_act_beats_other_rank_column() {
        let other_rank_col = cand(8, 1, AccessKind::Read, col(1, 8), 0, 1, true);
        let act = cand(
            2,
            0,
            AccessKind::Read,
            Command::Activate(Loc::new(0, 0, 2, 0, 0)),
            5,
            2,
            false,
        );
        let picked = select_table2(&[other_rank_col, act], Some(1), Some(0)).unwrap();
        assert_eq!(
            picked.bank, 2,
            "activate (5) beats other-rank read column (7)"
        );
    }

    #[test]
    fn table2_other_rank_column_still_selectable() {
        let other_rank_col = cand(8, 1, AccessKind::Read, col(1, 8), 0, 1, true);
        let picked = select_table2(&[other_rank_col], Some(1), Some(0)).unwrap();
        assert_eq!(picked.bank, 8);
    }

    #[test]
    fn table2_oldest_breaks_ties() {
        let a = cand(1, 0, AccessKind::Read, col(0, 1), 10, 10, true);
        let b = cand(2, 0, AccessKind::Read, col(0, 2), 5, 11, true);
        let picked = select_table2(&[a, b], None, Some(0)).unwrap();
        assert_eq!(picked.bank, 2, "same priority: older access first");
    }

    #[test]
    fn table2_priorities_match_paper() {
        let lb = Some(1usize);
        let lr = Some(0u8);
        let rc_same_bank = cand(1, 0, AccessKind::Read, col(0, 1), 0, 1, true);
        let rc_same_rank = cand(2, 0, AccessKind::Read, col(0, 2), 0, 2, true);
        let wc_same_bank = cand(
            1,
            0,
            AccessKind::Write,
            Command::write(Loc::new(0, 0, 1, 0, 0)),
            0,
            3,
            true,
        );
        let wc_same_rank = cand(
            2,
            0,
            AccessKind::Write,
            Command::write(Loc::new(0, 0, 2, 0, 0)),
            0,
            4,
            true,
        );
        let r_act = cand(
            2,
            0,
            AccessKind::Read,
            Command::Activate(Loc::new(0, 0, 2, 0, 0)),
            0,
            5,
            false,
        );
        let w_pre = cand(
            2,
            0,
            AccessKind::Write,
            Command::Precharge(Loc::new(0, 0, 2, 0, 0)),
            0,
            6,
            false,
        );
        let rc_other = cand(8, 1, AccessKind::Read, col(1, 8), 0, 7, true);
        let wc_other = cand(
            8,
            1,
            AccessKind::Write,
            Command::write(Loc::new(0, 1, 0, 0, 0)),
            0,
            8,
            true,
        );
        let prios: Vec<u8> = [
            rc_same_bank,
            rc_same_rank,
            wc_same_bank,
            wc_same_rank,
            r_act,
            w_pre,
            rc_other,
            wc_other,
        ]
        .iter()
        .map(|c| PriorityTable::priority(c, lb, lr))
        .collect();
        assert_eq!(prios, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn round_robin_cycles_through_banks() {
        let mk = |bank: usize, id: u64| cand(bank, 0, AccessKind::Read, col(0, bank), 0, id, true);
        let cands = [mk(0, 1), mk(2, 2), mk(3, 3)];
        let mut ptr = 0usize;
        let first = select_round_robin_limited(&cands, &mut ptr, 0..4, usize::MAX).unwrap();
        assert_eq!(first.bank, 0);
        assert_eq!(ptr, 1);
        let second = select_round_robin_limited(&cands, &mut ptr, 0..4, usize::MAX).unwrap();
        assert_eq!(second.bank, 2, "pointer at 1: next available bank is 2");
        let third = select_round_robin_limited(&cands, &mut ptr, 0..4, usize::MAX).unwrap();
        assert_eq!(third.bank, 3);
        // Wraps around.
        let fourth = select_round_robin_limited(&cands, &mut ptr, 0..4, usize::MAX).unwrap();
        assert_eq!(fourth.bank, 0);
    }

    #[test]
    fn round_robin_empty_is_none() {
        let mut ptr = 0usize;
        assert!(select_round_robin_limited(&[], &mut ptr, 0..4, usize::MAX).is_none());
    }

    #[test]
    fn escalated_candidate_outranks_the_whole_table() {
        // Lowest Table 2 priority (other-rank write column, 8) but
        // escalated: it must beat the same-bank read column (priority 1).
        let best = cand(1, 0, AccessKind::Read, col(0, 1), 0, 1, true);
        let mut starved = cand(
            8,
            1,
            AccessKind::Write,
            Command::write(Loc::new(0, 1, 0, 0, 0)),
            0,
            2,
            true,
        );
        starved.escalated = true;
        let picked = select_table2(&[best, starved], Some(1), Some(0)).unwrap();
        assert_eq!(picked.bank, 8, "escalated access gets top priority");
        let intel_picked = select_intel_limited(&[best, starved], usize::MAX).unwrap();
        assert_eq!(intel_picked.bank, 8);
        let mut ptr = 0usize;
        let rr = select_round_robin_limited(&[best, starved], &mut ptr, 0..16, usize::MAX).unwrap();
        assert_eq!(rr.bank, 8, "round robin also serves escalated first");
    }

    /// Reference for `select_limited`: sort every candidate by `key`, keep
    /// the first `lookahead`, take the first unblocked.
    fn sorted_reference<K: Ord>(
        cands: &[Candidate],
        lookahead: usize,
        key: impl Fn(&Candidate) -> K,
    ) -> Option<AccessId> {
        let mut ordered: Vec<&Candidate> = cands.iter().collect();
        ordered.sort_by_key(|c| key(c));
        ordered
            .into_iter()
            .take(lookahead.max(1))
            .find(|c| c.unblocked)
            .map(|c| c.id)
    }

    #[test]
    fn limited_selectors_match_a_sort_based_reference() {
        let mut state = 17u64;
        let mut draw = |n: u64| {
            state = crate::splitmix64(state);
            state % n
        };
        let mut checked = 0;
        for trial in 0..3_000u64 {
            let range = if trial % 2 == 0 { 0..16 } else { 16..32 };
            // At most one candidate per bank, in shuffled slice order, with
            // few distinct arrivals so the id tie-break matters.
            let mut banks: Vec<usize> = range.clone().collect();
            for i in (1..banks.len()).rev() {
                banks.swap(i, draw(i as u64 + 1) as usize);
            }
            banks.truncate(draw(17) as usize);
            let cands: Vec<Candidate> = banks
                .iter()
                .map(|&bank| {
                    let kind = if draw(2) == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let mut c = cand(
                        bank,
                        (bank % 16 / 4) as u8,
                        kind,
                        col(0, bank),
                        draw(4),
                        draw(1_000) * 32 + bank as u64,
                        draw(2) == 0,
                    );
                    c.unblocked = draw(3) != 0;
                    c.escalated = draw(5) == 0;
                    c
                })
                .collect();
            for lookahead in 1..=cands.len() + 1 {
                let want = sorted_reference(&cands, lookahead, |c| {
                    (!c.escalated, !c.started, c.arrival, !c.kind.is_read(), c.id)
                });
                let got = select_intel_limited(&cands, lookahead).map(|c| c.id);
                assert_eq!(got, want, "intel, trial {trial}, lookahead {lookahead}");

                let len = range.len();
                let mut pointer = range.start + draw(len as u64) as usize;
                let start = pointer;
                let want = sorted_reference(&cands, lookahead, |c| {
                    (!c.escalated, (c.bank + len - start) % len, c.arrival, c.id)
                });
                let got =
                    select_round_robin_limited(&cands, &mut pointer, range.clone(), lookahead);
                assert_eq!(got.map(|c| c.id), want, "round robin, trial {trial}");
                let want_pointer = got.map_or(start, |c| {
                    if c.bank + 1 >= range.end {
                        range.start
                    } else {
                        c.bank + 1
                    }
                });
                assert_eq!(pointer, want_pointer, "round robin pointer, trial {trial}");
                checked += usize::from(want.is_some());
            }
        }
        assert!(checked > 10_000, "too few non-empty selections: {checked}");
    }

    #[test]
    fn within_the_lookahead_blocked_candidates_change_no_pick() {
        let mut state = 29u64;
        let mut draw = |n: u64| {
            state = crate::splitmix64(state);
            state % n
        };
        let (mut picks, mut dropped) = (0, 0);
        for trial in 0..3_000u64 {
            let range = if trial % 2 == 0 { 0..16 } else { 16..32 };
            let mut banks: Vec<usize> = range.clone().collect();
            for i in (1..banks.len()).rev() {
                banks.swap(i, draw(i as u64 + 1) as usize);
            }
            banks.truncate(draw(17) as usize);
            let all: Vec<Candidate> = banks
                .iter()
                .map(|&bank| {
                    let kind = if draw(2) == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let mut c = cand(
                        bank,
                        (bank % 16 / 4) as u8,
                        kind,
                        col(0, bank),
                        draw(4),
                        draw(1_000) * 32 + bank as u64,
                        draw(2) == 0,
                    );
                    c.unblocked = draw(3) != 0;
                    c.escalated = draw(5) == 0;
                    c
                })
                .collect();
            let unblocked: Vec<Candidate> = all.iter().copied().filter(|c| c.unblocked).collect();
            dropped += all.len() - unblocked.len();
            // Every lookahead the candidate count does not exceed.
            for lookahead in all.len().max(1)..=all.len() + 2 {
                let id = |c: Option<Candidate>| c.map(|c| c.id);
                let want = id(select_intel_limited(&all, lookahead));
                assert_eq!(
                    id(select_intel_limited(&unblocked, lookahead)),
                    want,
                    "intel, trial {trial}"
                );
                let start = range.start + draw(range.len() as u64) as usize;
                let (mut p_all, mut p_unblocked) = (start, start);
                let want = id(select_round_robin_limited(
                    &all,
                    &mut p_all,
                    range.clone(),
                    lookahead,
                ));
                let got = select_round_robin_limited(
                    &unblocked,
                    &mut p_unblocked,
                    range.clone(),
                    lookahead,
                );
                assert_eq!(id(got), want, "round robin, trial {trial}");
                assert_eq!(p_unblocked, p_all, "round robin pointer, trial {trial}");
                picks += usize::from(want.is_some());
            }
        }
        assert!(
            picks > 5_000 && dropped > 5_000,
            "too few cases: {picks} picks, {dropped} blocked"
        );
    }

    #[test]
    fn intel_prefers_started_then_oldest() {
        let started_new = cand(0, 0, AccessKind::Read, col(0, 0), 100, 3, true);
        let unstarted_old = cand(1, 0, AccessKind::Read, col(0, 1), 1, 1, false);
        let picked = select_intel_limited(&[unstarted_old, started_new], usize::MAX).unwrap();
        assert_eq!(picked.bank, 0, "started access finishes first");
        let picked2 = select_intel_limited(&[unstarted_old], usize::MAX).unwrap();
        assert_eq!(picked2.bank, 1);
    }
}
