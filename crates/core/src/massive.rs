//! Population-scale deployments over the sharded ledger engine (E17).
//!
//! The paper's economics are aggregate effects — zero-sum conservation,
//! zombie bankruptcy, spammer starvation only *mean* anything over large
//! populations — but the full protocol world in [`crate::system`] models
//! every network message and tops out in the low thousands of users.
//! This module is the scale harness: a stripped-down send/receive world
//! that keeps exactly the paper's money mechanics (every email moves one
//! e-penny from sender to receiver, balances and limits enforced, every
//! mutation journaled durably) while dropping per-message protocol
//! chrome, so 1M+ users across 10+ ISPs fit in one run.
//!
//! # The shard map
//!
//! Accounts are distributed over N independent
//! [`ShardedLedgerStore`] engines by the stable FNV-1a account hash
//! ([`stable_account_hash`](zmail_store::stable_account_hash)): shard
//! `hash(isp, user) % N` owns a user's balance row, holds it in its own
//! WAL with group commit, and checkpoints it on its own cadence. Each
//! ISP's pool and each bank's books likewise get a single owner shard.
//! Every send is one `transfer` call: the store journals a same-shard
//! send as the usual charge/deposit pair and runs a cross-shard one as
//! the two-phase transfer (prepare on the sender's shard, apply on the
//! receiver's, release closing the outbox entry), so the zero-sum audit
//! balances penny-for-penny at any shard count and across crashes. The
//! world reads a sender's row through [`Ledger::user`], as the protocol
//! world's ISPs do.
//!
//! # Parallel-within-tick
//!
//! [`MassiveWorld`] implements [`World`]: an event's footprint
//! is the pair of shards its sender and receiver live on, its stage
//! phase does the per-message digest work (modelling the §4 evidence
//! sealing — the embarrassingly parallel part), and its apply phase
//! moves the penny. The engine stages footprint-independent events on a
//! worker pool and applies everything serially in FIFO order, so a run
//! is byte-identical at any thread count — which
//! `scripts/ci.sh` pins with the E17 equivalence gate.

use crate::config::DurabilityConfig;
use zmail_obs::{FlightRecorder, SpanStatus};
use zmail_sim::racecheck::{AccessRecorder, CheckedWorld, RacecheckReport};
use zmail_sim::{Scheduler, SimDuration, SimTime, Simulation, World};
use zmail_store::{
    BankBooks, Books, IspBooks, Ledger, MemStorage, SendError, ShardedLedgerStore, UserBooks,
    XferKind, XferLeg,
};

/// Racecheck access class of the sharded ledger engines.
const CLASS_SHARD: &str = "shard";

/// Parameters of a population-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MassiveConfig {
    /// Number of ISPs.
    pub isps: u32,
    /// Users per ISP.
    pub users_per_isp: u32,
    /// Simulated ticks (one tick = one second of virtual time).
    pub ticks: u32,
    /// Send events scheduled per tick.
    pub sends_per_tick: u32,
    /// Rounds of digest mixing per message, modelling the per-message
    /// crypto the stage phase would do in the full protocol.
    pub digest_rounds: u32,
    /// Initial e-penny balance per user.
    pub initial_balance: i64,
    /// Per-user daily send limit.
    pub daily_limit: u32,
    /// Ledger durability: shard count and WAL group-commit tuning.
    pub durability: DurabilityConfig,
    /// Workload seed (sender/receiver pairs derive from it).
    pub seed: u64,
}

impl Default for MassiveConfig {
    fn default() -> Self {
        MassiveConfig {
            isps: 10,
            users_per_isp: 1_000,
            ticks: 10,
            sends_per_tick: 1_000,
            digest_rounds: 64,
            initial_balance: 100,
            daily_limit: u32::MAX,
            durability: DurabilityConfig::default(),
            seed: 1,
        }
    }
}

impl MassiveConfig {
    /// Total user population.
    pub fn users(&self) -> u64 {
        u64::from(self.isps) * u64::from(self.users_per_isp)
    }

    /// Total e-pennies minted at bootstrap (the conserved quantity).
    pub fn minted(&self) -> i64 {
        self.users() as i64 * self.initial_balance
    }

    /// The global bootstrap books: every user at `initial_balance`,
    /// empty pools, no banks (nothing issues or retires pennies here,
    /// so conservation is exact equality against [`MassiveConfig::minted`]).
    pub fn bootstrap(&self) -> Books {
        Books {
            isps: (0..self.isps)
                .map(|_| IspBooks {
                    users: vec![
                        UserBooks {
                            account: 0,
                            balance: self.initial_balance,
                            sent_today: 0,
                            limit: self.daily_limit,
                        };
                        self.users_per_isp as usize
                    ],
                    avail: 0,
                    credit: Vec::new(),
                    nonces: Vec::new(),
                })
                .collect(),
            banks: Vec::<BankBooks>::new(),
        }
    }
}

/// One event: a user attempts to email another user.
#[derive(Debug, Clone, Copy)]
pub struct SendMail {
    /// Sender's ISP.
    pub from_isp: u32,
    /// Sender's user index within the ISP.
    pub from_user: u32,
    /// Receiver's ISP.
    pub to_isp: u32,
    /// Receiver's user index within the ISP.
    pub to_user: u32,
}

/// Outcome tallies of a population-scale run. Pure simulation state —
/// no wall-clock, no thread-count dependence — so serial and parallel
/// runs of one seed must produce `==` reports (the CI equivalence gate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MassiveReport {
    /// Events processed.
    pub events: u64,
    /// Sends that paid and delivered.
    pub paid: u64,
    /// Sends refused: sender balance exhausted.
    pub bounced_balance: u64,
    /// Sends refused: sender hit the daily limit.
    pub bounced_limit: u64,
    /// Paid sends whose debit and credit crossed shards (two-phase).
    pub cross_shard: u64,
    /// Paid sends settled within one shard.
    pub same_shard: u64,
    /// Fold of every staged message digest: changes if any event's
    /// staged computation or order of application changes.
    pub digest_checksum: u64,
    /// CRC32 of the merged books' canonical encoding at run end.
    pub books_crc: u32,
}

/// The population-scale world: a sharded durable ledger plus counters.
#[derive(Debug)]
pub struct MassiveWorld {
    config: MassiveConfig,
    store: ShardedLedgerStore<MemStorage>,
    report: MassiveReport,
    /// Causal flight recorder (disabled by default): each send mints a
    /// lifecycle root closed in the same apply — this world has no
    /// multi-hop protocol, so a trace is a single annotated span. All
    /// span mutation happens in `apply`, keeping the stream
    /// byte-identical at any thread count.
    flight: FlightRecorder,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl MassiveWorld {
    /// Opens the sharded store over fresh backends and zeroed counters.
    pub fn new(config: MassiveConfig) -> Self {
        let storages = (0..config.durability.shards.max(1))
            .map(|_| MemStorage::new())
            .collect();
        let (store, _) =
            ShardedLedgerStore::open(storages, config.durability.store, config.bootstrap());
        MassiveWorld {
            config,
            store,
            report: MassiveReport::default(),
            flight: FlightRecorder::disabled(1),
        }
    }

    /// Installs a causal flight recorder; see the field docs for the
    /// span shape at this scale.
    pub fn attach_flight_recorder(&mut self, recorder: FlightRecorder) {
        self.flight = recorder;
    }

    /// The deterministic send scheduled as event `i` of tick `tick`.
    pub fn send_at(config: &MassiveConfig, tick: u32, i: u32) -> SendMail {
        let users = u64::from(config.users_per_isp);
        let isps = u64::from(config.isps);
        let a = splitmix(
            config
                .seed
                .wrapping_add(u64::from(tick).wrapping_mul(0x0100_0000_01b3))
                .wrapping_add(u64::from(i)),
        );
        let b = splitmix(a);
        let from = a % (isps * users);
        let mut to = b % (isps * users);
        if to == from {
            to = (to + 1) % (isps * users);
        }
        SendMail {
            from_isp: (from / users) as u32,
            from_user: (from % users) as u32,
            to_isp: (to / users) as u32,
            to_user: (to % users) as u32,
        }
    }

    /// The run's outcome so far.
    pub fn report(&self) -> &MassiveReport {
        &self.report
    }

    /// The underlying sharded engine.
    pub fn store(&self) -> &ShardedLedgerStore<MemStorage> {
        &self.store
    }

    /// Exact zero-sum audit: every e-penny minted at bootstrap is still
    /// on the books — no drift at any shard or thread count. Summed shard
    /// by shard: at a million accounts the merged image is 24 MB built
    /// only to be added up.
    pub fn audit(&self) -> Result<(), String> {
        let found = self.store.epennies_found();
        let minted = self.config.minted();
        if found == minted {
            Ok(())
        } else {
            Err(format!(
                "conservation violated: minted {minted}, found {found} (drift {})",
                found - minted
            ))
        }
    }

    /// The "books survive a crash" audit at scale: recovery over every
    /// shard (including in-doubt transfer resolution) must reproduce
    /// the live books exactly — compared shard by shard, for the same
    /// reason.
    pub fn verify_recovery(&self) -> bool {
        self.store.recovers_live_books().0
    }

    fn finish(&mut self) {
        self.store.commit_all();
        let encoded = self.store.books().encode();
        self.report.books_crc = zmail_store::wal::crc32(&encoded);
    }
}

/// Events of the population-scale world.
#[derive(Debug, Clone, Copy)]
pub enum MassiveEvent {
    /// A user attempts a send.
    Send(SendMail),
    /// End of tick: group-commit every shard (scheduled after the
    /// tick's sends, so recovered books land on tick boundaries).
    TickCommit,
}

impl World for MassiveWorld {
    type Event = MassiveEvent;
    type Effect = u64;

    fn footprint(&self, event: &MassiveEvent, keys: &mut Vec<u64>) {
        match event {
            MassiveEvent::Send(send) => {
                let map = self.store.map();
                keys.push(u64::from(map.user_shard(send.from_isp, send.from_user)));
                keys.push(u64::from(map.user_shard(send.to_isp, send.to_user)));
            }
            MassiveEvent::TickCommit => {
                // Touches every shard: conflicts with everything, so it
                // stages inline and applies in order.
                keys.extend(0..self.store.shard_count() as u64);
            }
        }
    }

    fn event_label(event: &MassiveEvent) -> &'static str {
        match event {
            MassiveEvent::Send(_) => "send",
            MassiveEvent::TickCommit => "tick_commit",
        }
    }

    fn stage(&self, _now: SimTime, event: &MassiveEvent, _rec: &mut AccessRecorder) -> u64 {
        // Stage digests are pure compute over the event and the seed —
        // no mutable shared state is read, so nothing is recorded.
        let MassiveEvent::Send(send) = event else {
            return 0;
        };
        // The per-message evidence digest (§4's sealed charge receipt):
        // pure compute over immutable inputs — the parallel payload.
        let mut digest = (u64::from(send.from_isp) << 48)
            | (u64::from(send.from_user) << 32)
            | (u64::from(send.to_isp) << 16)
            | u64::from(send.to_user);
        digest ^= self.config.seed;
        for _ in 0..self.config.digest_rounds {
            digest = splitmix(digest);
        }
        digest
    }

    fn apply(
        &mut self,
        now: SimTime,
        event: MassiveEvent,
        effect: u64,
        scheduler: &mut Scheduler<'_, MassiveEvent>,
    ) {
        self.report.events += 1;
        let send = match event {
            MassiveEvent::Send(send) => send,
            MassiveEvent::TickCommit => {
                for shard in 0..self.store.shard_count() as u64 {
                    scheduler.write(CLASS_SHARD, shard);
                }
                self.store.commit_all();
                return;
            }
        };
        let ms = now.as_millis();
        let lifecycle = self.flight.begin_trace(ms, "submit", "massive", "");
        if let Some(ctx) = lifecycle {
            let route = format_args!(
                "{}:{}->{}:{}",
                send.from_isp, send.from_user, send.to_isp, send.to_user
            );
            self.flight.annotate(ctx, route);
        }
        let from_shard = u64::from(self.store.map().user_shard(send.from_isp, send.from_user));
        let to_shard = u64::from(self.store.map().user_shard(send.to_isp, send.to_user));
        scheduler.read(CLASS_SHARD, from_shard);
        let sender = self.store.user(send.from_isp, send.from_user);
        if let Err(refusal) = sender.check_send() {
            let note = match refusal {
                SendError::InsufficientBalance => {
                    self.report.bounced_balance += 1;
                    "bounced=balance"
                }
                SendError::DailyLimitExceeded => {
                    self.report.bounced_limit += 1;
                    "bounced=limit"
                }
                SendError::RecipientFull => unreachable!("`check_send` reads the sender's row"),
            };
            if let Some(ctx) = lifecycle {
                self.flight.annotate(ctx, note);
                self.flight.end_with(ms, ctx, SpanStatus::Dropped);
            }
            return;
        }
        if from_shard == to_shard {
            self.report.same_shard += 1;
        } else {
            self.report.cross_shard += 1;
        }
        scheduler.write(CLASS_SHARD, from_shard);
        scheduler.write(CLASS_SHARD, to_shard);
        self.store.transfer(
            XferLeg {
                kind: XferKind::Charge,
                isp: send.from_isp,
                user: send.from_user,
                amount: 0,
            },
            XferLeg {
                kind: XferKind::Deposit,
                isp: send.to_isp,
                user: send.to_user,
                amount: 0,
            },
        );
        self.report.paid += 1;
        self.report.digest_checksum = self.report.digest_checksum.wrapping_add(effect);
        if let Some(ctx) = lifecycle {
            self.flight.end(ms, ctx);
        }
    }
}

/// Schedules the full `ticks × sends_per_tick` workload of `config`
/// (plus the per-tick commit barrier) over `world` — the bare
/// [`MassiveWorld`] or a wrapper of it — and drives the tick-parallel
/// engine with `threads` workers (0 = all cores, 1 = serial).
fn drive<W>(world: W, config: &MassiveConfig, threads: usize) -> W
where
    W: World<Event = MassiveEvent> + Sync,
{
    let mut sim = Simulation::new(world);
    for tick in 0..config.ticks {
        let at = SimTime::ZERO + SimDuration::from_secs(u64::from(tick));
        for i in 0..config.sends_per_tick {
            sim.schedule(
                at,
                MassiveEvent::Send(MassiveWorld::send_at(config, tick, i)),
            );
        }
        sim.schedule(at, MassiveEvent::TickCommit);
    }
    sim.run_parallel_to_completion(threads);
    sim.into_world()
}

/// Audits a finished world — exact conservation, and recovery over
/// every shard reproducing the live books — then seals its report with
/// the end-of-run books CRC.
fn seal(mut world: MassiveWorld) -> MassiveReport {
    world.audit().expect("zero-sum audit must balance exactly");
    assert!(
        world.verify_recovery(),
        "recovered books must match live books"
    );
    world.finish();
    world.report
}

/// Runs one population-scale simulation: `ticks × sends_per_tick` sends
/// plus a per-tick commit on `threads` workers, audited and sealed.
pub fn run_massive(config: &MassiveConfig, threads: usize) -> MassiveReport {
    seal(drive(MassiveWorld::new(*config), config, threads))
}

/// [`run_massive`] with a causal flight recorder attached — the E19
/// recorder-overhead probe at population scale. The caller keeps a clone
/// of `recorder` to `finalize` and `drain` after the run.
pub fn run_massive_traced(
    config: &MassiveConfig,
    threads: usize,
    recorder: FlightRecorder,
) -> MassiveReport {
    let mut world = MassiveWorld::new(*config);
    world.attach_flight_recorder(recorder);
    seal(drive(world, config, threads))
}

/// [`run_massive`] under the armed footprint race checker: the same
/// workload runs through a [`CheckedWorld`] adapter that records every
/// shard access and diffs it against the declared footprints. Returns
/// both reports; the racecheck report must be clean (it is — the shard
/// footprints are exact, which `crates/core/tests/massive_racecheck.rs`
/// pins down with randomized schedules and a mutation test).
pub fn run_massive_checked(
    config: &MassiveConfig,
    threads: usize,
) -> (MassiveReport, RacecheckReport) {
    let checked = drive(
        CheckedWorld::armed(MassiveWorld::new(*config)),
        config,
        threads,
    );
    let racecheck = checked.report();
    (seal(checked.into_inner()), racecheck)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: u32) -> MassiveConfig {
        MassiveConfig {
            isps: 4,
            users_per_isp: 50,
            ticks: 4,
            sends_per_tick: 200,
            digest_rounds: 8,
            durability: DurabilityConfig {
                shards,
                ..DurabilityConfig::default()
            },
            ..MassiveConfig::default()
        }
    }

    #[test]
    fn reports_are_identical_at_every_thread_count() {
        let config = small(4);
        let reference = run_massive(&config, 1);
        assert_eq!(reference.events, 4 * 200 + 4);
        assert!(reference.paid > 0);
        assert!(reference.cross_shard > 0, "workload must cross shards");
        for threads in [2, 4, 8, 0] {
            assert_eq!(
                run_massive(&config, threads),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn shard_count_changes_wal_layout_not_economics() {
        let one = run_massive(&small(1), 2);
        for shards in [4, 16] {
            let many = run_massive(&small(shards), 2);
            assert_eq!(many.paid, one.paid);
            assert_eq!(many.bounced_balance, one.bounced_balance);
            assert_eq!(many.bounced_limit, one.bounced_limit);
            assert_eq!(many.digest_checksum, one.digest_checksum);
            assert_eq!(
                many.books_crc, one.books_crc,
                "merged books must be identical at {shards} shards"
            );
            assert_eq!(many.cross_shard + many.same_shard, one.paid);
        }
        assert_eq!(one.cross_shard, 0, "one shard cannot cross shards");
    }

    #[test]
    fn checked_run_is_clean_and_matches_unchecked() {
        let config = small(4);
        let reference = run_massive(&config, 2);
        for threads in [1, 4] {
            let (report, racecheck) = run_massive_checked(&config, threads);
            assert_eq!(report, reference, "threads={threads}");
            assert!(
                racecheck.findings.is_empty(),
                "threads={threads}:\n{}",
                racecheck.render()
            );
            assert_eq!(racecheck.events_checked, 4 * 200 + 4);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_is_thread_independent() {
        let config = small(4);
        let reference = run_massive(&config, 1);
        let record = |threads: usize| {
            let recorder = FlightRecorder::new(1 << 16);
            let report = run_massive_traced(&config, threads, recorder.clone());
            recorder.finalize(u64::from(config.ticks) * 1000);
            (report, recorder.drain())
        };
        let (serial_report, serial_log) = record(1);
        assert_eq!(serial_report, reference, "recorder must not change the run");
        serial_log.validate().expect("span log well-formed");
        assert_eq!(
            serial_log.traces().len() as u64,
            u64::from(config.ticks) * u64::from(config.sends_per_tick)
        );
        for threads in [2, 8] {
            let (report, log) = record(threads);
            assert_eq!(report, reference, "threads={threads}");
            assert_eq!(
                serial_log.spans, log.spans,
                "span stream diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn balances_run_dry_and_bounce() {
        let config = MassiveConfig {
            isps: 2,
            users_per_isp: 4,
            ticks: 8,
            sends_per_tick: 100,
            initial_balance: 3,
            digest_rounds: 1,
            durability: DurabilityConfig {
                shards: 2,
                ..DurabilityConfig::default()
            },
            ..MassiveConfig::default()
        };
        let report = run_massive(&config, 2);
        assert!(report.bounced_balance > 0, "tiny balances must bounce");
        // Every payment is matched: paid = deposits = charges.
        assert_eq!(
            report.paid + report.bounced_balance + report.bounced_limit,
            u64::from(config.ticks) * u64::from(config.sends_per_tick)
        );
    }
}
