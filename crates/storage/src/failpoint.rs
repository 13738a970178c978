//! Deterministic crash-fault injection for durability testing.
//!
//! Every durability-critical step in the storage layer (WAL appends and
//! syncs, snapshot section writes, the snapshot rename, directory syncs,
//! WAL truncation) passes through a *crash point*. In normal operation a
//! crash point is free. A test can:
//!
//! 1. **count** the crash points an operation passes through
//!    ([`count_crash_points`]), then
//! 2. **arm** the Nth point ([`arm`]) and re-run the operation: the Nth
//!    step fails exactly as a process crash would — a write is torn
//!    mid-frame, and every *subsequent* storage step fails too (the
//!    "process" is dead until [`disarm`]).
//!
//! Crashing at every N in `1..=count` sweeps every interleaving of a
//! crash with the operation's durable steps, which is how
//! `tests/crash_recovery.rs` proves recovery always lands on exactly the
//! pre-op or post-op state.
//!
//! State is thread-local, so concurrent tests do not interfere. The
//! `VDB_CRASH_POINT` environment variable (read by [`arm_from_env`])
//! arms the calling thread from the outside, for driving whole-process
//! crash experiments from a shell.
//!
//! This module simulates a *process* crash: bytes already handed to the
//! OS survive, bytes not yet written are lost, and a torn frame may be
//! left at the injection point. (Power-loss reordering below the OS is
//! out of scope; the recovery protocol orders its syncs so that model
//! would need no extra machinery, only a different injector.)

use std::cell::Cell;
use std::fs::File;
use std::io::Write;
use vdb_core::error::{Error, Result};

#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Crash points are free (production).
    Off,
    /// Count crash points without crashing.
    Counting(u64),
    /// Crash at the point where `remaining` reaches zero; once `dead`,
    /// every further point fails.
    Armed { remaining: u64, dead: bool },
}

/// What a crash point should do, decided against the thread's mode.
enum Outcome {
    /// Perform the step normally.
    Proceed,
    /// This is the armed point: the step dies *mid-way* (tear a write).
    Fired,
    /// The process already crashed earlier: do nothing at all.
    Dead,
}

thread_local! {
    static MODE: Cell<Mode> = const { Cell::new(Mode::Off) };
}

fn crash_error(site: &str) -> Error {
    Error::Io(std::io::Error::other(format!("simulated crash at {site}")))
}

/// Whether `err` is a simulated crash produced by this module.
pub fn is_crash(err: &Error) -> bool {
    matches!(err, Error::Io(e) if e.to_string().starts_with("simulated crash at "))
}

/// Arm the calling thread to crash at the `nth` crash point (1-based).
///
/// # Panics
/// Panics if `nth` is zero.
pub fn arm(nth: u64) {
    assert!(nth > 0, "crash points are 1-based");
    MODE.with(|m| {
        m.set(Mode::Armed {
            remaining: nth,
            dead: false,
        })
    });
}

/// Arm from the `VDB_CRASH_POINT` environment variable, if set to a
/// positive integer. Returns whether the thread was armed.
pub fn arm_from_env() -> bool {
    match std::env::var("VDB_CRASH_POINT") {
        Ok(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => {
                arm(n);
                true
            }
            _ => false,
        },
        Err(_) => false,
    }
}

/// Disable injection on the calling thread (the "process" restarts).
pub fn disarm() {
    MODE.with(|m| m.set(Mode::Off));
}

/// Whether an armed crash has fired on this thread since [`arm`].
pub fn crashed() -> bool {
    MODE.with(|m| matches!(m.get(), Mode::Armed { dead: true, .. }))
}

/// Run `f` with crash points counted (never crashing), returning `f`'s
/// result and the number of crash points it passed through.
pub fn count_crash_points<T>(f: impl FnOnce() -> T) -> (T, u64) {
    MODE.with(|m| m.set(Mode::Counting(0)));
    let out = f();
    let n = MODE.with(|m| match m.get() {
        Mode::Counting(n) => n,
        _ => 0,
    });
    MODE.with(|m| m.set(Mode::Off));
    (out, n)
}

fn check() -> Outcome {
    MODE.with(|m| match m.get() {
        Mode::Off => Outcome::Proceed,
        Mode::Counting(n) => {
            m.set(Mode::Counting(n + 1));
            Outcome::Proceed
        }
        Mode::Armed { dead: true, .. } => Outcome::Dead,
        Mode::Armed { remaining: 1, .. } => {
            m.set(Mode::Armed {
                remaining: 0,
                dead: true,
            });
            Outcome::Fired
        }
        Mode::Armed { remaining, dead } => {
            m.set(Mode::Armed {
                remaining: remaining - 1,
                dead,
            });
            Outcome::Proceed
        }
    })
}

/// Pass through one crash point. Free when off; fails once the armed
/// point is reached and forever after until [`disarm`].
pub fn hit(site: &'static str) -> Result<()> {
    match check() {
        Outcome::Proceed => Ok(()),
        Outcome::Fired | Outcome::Dead => Err(crash_error(site)),
    }
}

/// Write `buf` to `file` through a crash point. At the firing point the
/// write is *torn*: the first half of `buf` reaches the file before the
/// crash error is returned, exactly like a process dying mid-`write`.
/// After the crash (dead), nothing is written at all.
pub fn write_all_torn(file: &mut File, buf: &[u8], site: &'static str) -> Result<()> {
    write_parts_torn(file, &[buf], site)
}

/// [`write_all_torn`] for one logical buffer held as consecutive parts
/// (a frame header and its payload), written without concatenating
/// them: one crash point, and a firing tears at half the total length.
pub fn write_parts_torn(file: &mut File, parts: &[&[u8]], site: &'static str) -> Result<()> {
    match check() {
        Outcome::Proceed => {
            for part in parts {
                file.write_all(part)?;
            }
            Ok(())
        }
        Outcome::Fired => {
            let mut left = parts.iter().map(|p| p.len()).sum::<usize>() / 2;
            for part in parts {
                let n = left.min(part.len());
                let _ = file.write_all(&part[..n]);
                left -= n;
            }
            Err(crash_error(site))
        }
        Outcome::Dead => Err(crash_error(site)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_free() {
        assert!(hit("x").is_ok());
        assert!(!crashed());
    }

    #[test]
    fn counting_counts() {
        let ((), n) = count_crash_points(|| {
            for _ in 0..5 {
                hit("c").unwrap();
            }
        });
        assert_eq!(n, 5);
        assert!(hit("after").is_ok(), "counting mode ends cleanly");
    }

    #[test]
    fn armed_fires_at_nth_and_stays_dead() {
        arm(3);
        assert!(hit("a").is_ok());
        assert!(hit("b").is_ok());
        let e = hit("c").unwrap_err();
        assert!(is_crash(&e), "{e}");
        assert!(crashed());
        assert!(hit("d").is_err(), "dead until disarm");
        disarm();
        assert!(hit("e").is_ok());
    }

    #[test]
    fn torn_write_leaves_prefix_then_nothing() {
        let dir = crate::file::TempDir::new("fp-torn").unwrap();
        let mut f = File::create(dir.file("t")).unwrap();
        arm(1);
        let err = write_all_torn(&mut f, &[7u8; 10], "w").unwrap_err();
        assert!(is_crash(&err));
        assert!(write_all_torn(&mut f, &[9u8; 4], "w2").is_err());
        disarm();
        drop(f);
        let bytes = std::fs::read(dir.file("t")).unwrap();
        assert_eq!(bytes, vec![7u8; 5], "half the frame survives the crash");
    }

    #[test]
    fn env_arming() {
        assert!(!arm_from_env(), "unset env does not arm");
    }
}
