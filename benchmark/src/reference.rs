//! The reference kernel: a fixed piece of work that belongs to the
//! harness, run before and after everything that is timed.
//!
//! The box this benchmark is defined on is a small share of a busy host.
//! Its speed moves by tens of per cent for a minute at a time, for the
//! same binary, and it is the memory system that moves (neighbours in the
//! caches and on the memory bus): register-only arithmetic keeps its pace
//! within 3 %. A run lands in one such phase as a whole, so no statistic
//! *within* the run (minimum, quartile, median) is steadier across runs
//! than another. What does help is a yardstick taken inside the same
//! second: a time is divided by how long the reference took around it and
//! multiplied by [`NOMINAL_S`], the reference's time on this box when it
//! is quiet. Reported seconds are therefore "seconds at the reference's
//! nominal speed". Both sides of a comparison are scaled by the same
//! kernel, which no later change may edit, so a change in the program
//! still shows in full.
//!
//! The kernel is what a simulator does to memory, in two equal halves: a
//! chain of dependent loads through 32 MiB (far past the 2 MiB L2, so
//! every step is a TLB miss and an L3 or DRAM access), and the hold model
//! of an event queue (pop the earliest, push it back later) on a 1 MiB
//! binary heap, which lives in L2 when the host lets it. Of the ten
//! kernels tried beside the four gated workloads for 25 minutes, this pair
//! tracked all four best (README, "The reference kernel").

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::workloads::Size;

/// Seconds one [`Reference::sample`] takes on the defining box when the
/// host is quiet (the lower decile of 1 100 readings over 25 minutes). Only
/// a scale: it moves every reported time by the same factor.
pub const NOMINAL_S: f64 = 0.12;

/// Links of the chain, four bytes each: 32 MiB.
const CHAIN_LINKS: u64 = 8 << 20;
/// Dependent loads of one sample: 0.06 s when quiet.
const CHASE_STEPS: u64 = 350_000;
/// Pending events of the hold model, sixteen bytes each: 1 MiB.
const HEAP_EVENTS: u64 = 64 << 10;
/// Pop-and-push-back steps of one sample: 0.06 s when quiet.
const HOLD_STEPS: u64 = 600_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

pub struct Reference {
    /// One cycle through every link: `chain[i]` is the link after `i`.
    chain: Vec<u32>,
    at: u32,
    chase_steps: u64,
    /// Earliest first; the second word keeps equal times in one order.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
    hold_steps: u64,
}

impl Reference {
    /// Builds the chain (Sattolo's shuffle from a fixed seed: a single
    /// cycle) and fills the heap, the same on every run.
    pub fn new(size: Size) -> Reference {
        let links = size.of(CHAIN_LINKS).max(2) as usize;
        let mut chain: Vec<u32> = (0..links as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1D;
        for i in (1..links).rev() {
            x = xorshift(x);
            chain.swap(i, (x % i as u64) as usize);
        }
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let heap = (0..size.of(HEAP_EVENTS) as u32)
            .map(|id| {
                rng = xorshift(rng);
                Reverse((rng >> 20, id))
            })
            .collect();
        Reference {
            chain,
            at: 0,
            chase_steps: size.of(CHASE_STEPS),
            heap,
            rng,
            hold_steps: size.of(HOLD_STEPS),
        }
    }

    /// Memory the kernel keeps resident for the whole run, MB.
    pub fn resident_mb(&self) -> f64 {
        let bytes = self.chain.len() * std::mem::size_of::<u32>()
            + self.heap.capacity() * std::mem::size_of::<Reverse<(u64, u32)>>();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// Runs the kernel once; host seconds it took.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..self.chase_steps {
            at = self.chain[at as usize];
        }
        self.at = at;
        for _ in 0..self.hold_steps {
            let Reverse((due, id)) = self.heap.pop().expect("never emptied");
            self.rng = xorshift(self.rng);
            // Uniform delays: the event lands anywhere among the pending
            // ones, so the sift goes deep.
            self.heap.push(Reverse((due + (self.rng >> 24), id)));
        }
        std::hint::black_box(at);
        t.elapsed().as_secs_f64()
    }
}

/// `seconds` at the reference's nominal speed, given the reference's own
/// time just before and just after they were spent.
pub fn normalised(seconds: f64, ref_before: f64, ref_after: f64) -> f64 {
    seconds * NOMINAL_S / ((ref_before + ref_after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_through_every_link() {
        let r = Reference::new(Size::Smoke);
        let links = r.chain.len();
        assert_eq!(links as u64, CHAIN_LINKS / 50);
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = r.chain[at as usize];
            steps += 1;
            if at == 0 || steps > links {
                break;
            }
        }
        assert_eq!(steps, links);
    }

    #[test]
    fn a_sample_takes_time_and_moves_on() {
        let mut r = Reference::new(Size::Smoke);
        assert!(r.sample() > 0.0);
        let at = r.at;
        r.sample();
        assert_ne!(r.at, at, "the next sample continues along the chain");
        assert_eq!(r.heap.len() as u64, HEAP_EVENTS / 50, "hold keeps every event");
        assert!((r.resident_mb() - 33.0 / 50.0).abs() < 0.01);
    }

    #[test]
    fn times_scale_against_the_reference() {
        // The reference at its nominal speed leaves a time alone.
        assert_eq!(normalised(2.0, NOMINAL_S, NOMINAL_S), 2.0);
        // A host a quarter slower, by the mean of both neighbours.
        let slow = normalised(2.5, 1.2 * NOMINAL_S, 1.3 * NOMINAL_S);
        assert!((slow - 2.0).abs() < 1e-12);
    }
}
