//! The explorer's action alphabet and replayable traces.
//!
//! A trace is a whitespace-separated list of action tokens — compact enough
//! to paste into a `ccr-experiments mc --replay "..."` reproducer line, and
//! round-trippable ([`std::fmt::Display`] / [`std::str::FromStr`]) so the
//! shrinker, the CLI and the negative-control tests all speak the same
//! format.

use std::fmt;
use std::str::FromStr;

/// One transition of the model: what the explorer does to the real
/// `DurableSystem` at a decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum McAction {
    /// `b{i}` — begin logical transaction `i` and deposit `1 << i` at each
    /// of its places (volatile until commit): a local transaction on its
    /// shard if it has one place, else a global one.
    Begin(usize),
    /// `c{i}` — commit local transaction `i`: a direct journaled commit, or
    /// (in group-commit mode) stage it for the next [`McAction::Flush`].
    Commit(usize),
    /// `a{i}` — abort transaction `i` (nothing reaches the journal).
    Abort(usize),
    /// `f` — group-commit flush: every shard commits its staged
    /// transactions with one batch append.
    Flush,
    /// `k` — write a checkpoint (folds the journal into a durable image and
    /// lets the backend truncate).
    Checkpoint,
    /// `x` — clean crash: lose all volatile state, then recover
    /// (`TornPolicy::DiscardTail`).
    CrashClean,
    /// `t{n}` — tear the last `n` physical units (sectors / operations) off
    /// the most recent commit flush, then crash and recover. The flush's
    /// transactions become *undecided*: survivors must form a prefix of the
    /// batch in commit order.
    CrashTorn(usize),
    /// `r` — lose the *first* sector of the most recent multi-sector flush
    /// (device reordered persistence across the un-fsynced write), then
    /// crash and recover.
    CrashReorder,
    /// `d{n}` — crash, then arm the device to lose power again after `n`
    /// checked device operations *of the recovery itself*, then recover
    /// (the nested power loss is absorbed internally; the trigger is
    /// one-shot).
    CrashInRecovery(u64),
    /// `p{i}` — 2PC phase one (sharded instances only): collect a durable
    /// PREPARE from every participant of global transaction `i`. Any
    /// no-vote aborts it globally.
    Prepare(usize),
    /// `q{i}` — 2PC decision + phase two (sharded instances only): durably
    /// record commit for the fully prepared global transaction `i`, then
    /// journal and apply the decision on every participant.
    DecideCommit(usize),
    /// `s{n}` — crash the shard subset with bitmask `n` (sharded instances
    /// only): each named shard loses power and recovers under
    /// `TornPolicy::DiscardTail`; in-doubt transactions are then settled
    /// from the coordinator's durable commit set (presumed abort).
    CrashShards(u32),
    /// `z` — crash the coordinator (sharded instances only): its volatile
    /// transaction table dies, unprepared halves abort locally, prepared
    /// halves stay in doubt and are settled by presumed abort.
    CrashCoordinator,
    /// `h{i}` — phase two cut short (sharded instances only): durably
    /// record commit for the fully prepared global transaction `i`, tell its
    /// first participant, then the coordinator and every other participant
    /// lose power; those settle from the durable decision. Not enumerated by
    /// the explorer.
    CutPhaseTwo(usize),
    /// `u{s}.{n}` — the fleet form of `d{n}` (sharded instances only): shard
    /// `s` loses power as under `s{1 << s}`, then again, and its second
    /// recovery is itself interrupted after `n` checked device operations.
    /// Not enumerated by the explorer.
    CrashShardInRecovery(usize, u64),
}

impl fmt::Display for McAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McAction::Begin(i) => write!(f, "b{i}"),
            McAction::Commit(i) => write!(f, "c{i}"),
            McAction::Abort(i) => write!(f, "a{i}"),
            McAction::Flush => write!(f, "f"),
            McAction::Checkpoint => write!(f, "k"),
            McAction::CrashClean => write!(f, "x"),
            McAction::CrashTorn(n) => write!(f, "t{n}"),
            McAction::CrashReorder => write!(f, "r"),
            McAction::CrashInRecovery(n) => write!(f, "d{n}"),
            McAction::Prepare(i) => write!(f, "p{i}"),
            McAction::DecideCommit(i) => write!(f, "q{i}"),
            McAction::CrashShards(n) => write!(f, "s{n}"),
            McAction::CrashCoordinator => write!(f, "z"),
            McAction::CutPhaseTwo(i) => write!(f, "h{i}"),
            McAction::CrashShardInRecovery(s, n) => write!(f, "u{s}.{n}"),
        }
    }
}

/// A malformed trace token (the token is echoed back).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError(pub String);

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unrecognised trace token `{}`", self.0)
    }
}

impl std::error::Error for ParseTraceError {}

impl FromStr for McAction {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseTraceError(s.to_string());
        let num = |rest: &str| rest.parse::<usize>().map_err(|_| bad());
        match s {
            "f" => return Ok(McAction::Flush),
            "k" => return Ok(McAction::Checkpoint),
            "x" => return Ok(McAction::CrashClean),
            "r" => return Ok(McAction::CrashReorder),
            "z" => return Ok(McAction::CrashCoordinator),
            _ => {}
        }
        let (head, rest) = s.split_at(1);
        match head {
            "b" => Ok(McAction::Begin(num(rest)?)),
            "c" => Ok(McAction::Commit(num(rest)?)),
            "a" => Ok(McAction::Abort(num(rest)?)),
            "t" => Ok(McAction::CrashTorn(num(rest)?)),
            "d" => Ok(McAction::CrashInRecovery(num(rest)? as u64)),
            "p" => Ok(McAction::Prepare(num(rest)?)),
            "q" => Ok(McAction::DecideCommit(num(rest)?)),
            "s" => Ok(McAction::CrashShards(num(rest)? as u32)),
            "h" => Ok(McAction::CutPhaseTwo(num(rest)?)),
            "u" => {
                let (s, n) = rest.split_once('.').ok_or_else(bad)?;
                Ok(McAction::CrashShardInRecovery(num(s)?, num(n)? as u64))
            }
            _ => Err(bad()),
        }
    }
}

/// A replayable action sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct McTrace(pub Vec<McAction>);

impl fmt::Display for McTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl FromStr for McTrace {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.split_whitespace().map(McAction::from_str).collect::<Result<Vec<_>, _>>().map(McTrace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_action_round_trips_through_its_token() {
        let all = vec![
            McAction::Begin(0),
            McAction::Commit(2),
            McAction::Abort(1),
            McAction::Flush,
            McAction::Checkpoint,
            McAction::CrashClean,
            McAction::CrashTorn(3),
            McAction::CrashReorder,
            McAction::CrashInRecovery(17),
            McAction::Prepare(1),
            McAction::DecideCommit(0),
            McAction::CrashShards(3),
            McAction::CrashCoordinator,
            McAction::CutPhaseTwo(1),
            McAction::CrashShardInRecovery(2, 5),
        ];
        let trace = McTrace(all.clone());
        let parsed: McTrace = trace.to_string().parse().unwrap();
        assert_eq!(parsed.0, all);
    }

    #[test]
    fn junk_tokens_are_rejected() {
        assert!("y7".parse::<McAction>().is_err());
        assert!("b".parse::<McAction>().is_err());
        assert!("bx".parse::<McAction>().is_err());
        assert!("p".parse::<McAction>().is_err());
        assert!("u1".parse::<McAction>().is_err());
        assert!("u.2".parse::<McAction>().is_err());
        assert!("b0 zz".parse::<McTrace>().is_err());
    }

    #[test]
    fn empty_trace_parses_and_prints_empty() {
        let t: McTrace = "".parse().unwrap();
        assert!(t.0.is_empty());
        assert_eq!(t.to_string(), "");
    }
}
