//! The adversary interpreter: everything a [`Fault::Adversary`] clause
//! means to the harness.
//!
//! Adversaries act *above* the channel layer — on message content and
//! ledger claims, not on delivery — so they live here rather than in the
//! [`zmail_fault::FaultInjector`]. The [`AdversaryEngine`] taps every
//! outbound email of an attacker ISP on the serial apply path, rolls its
//! own dedicated sampler, and hands back the counterfeits it wants on
//! the wire; the world puts them straight onto the delivery queue, so
//! channel-fault accounting never mixes with attack accounting. When a
//! delivery later lands or is refused, the engine says which attack, if
//! any, it belonged to. [`AdversaryCounters`] and [`AdversaryMetrics`]
//! move nowhere else.

use crate::config::ZmailConfig;
use crate::ids::IspId;
use crate::isp::RefusalCause;
use crate::msg::EmailMsg;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use zmail_crypto::{Attestation, KeyPair, PrivateKey};
use zmail_fault::{AdversaryCounters, AdversaryFault, AdversaryMetrics, AttackClass, Fault};
use zmail_sim::workload::{MailKind, UserAddr};
use zmail_sim::{Sampler, SimDuration, SimTime};

/// Interprets the plan's [`AdversaryFault`] clauses. Exists only when
/// the plan carries one — without it nothing here runs and no sampler
/// is drawn, keeping legacy runs byte-identical.
pub(crate) struct AdversaryEngine {
    clauses: Vec<AdversaryFault>,
    sampler: Sampler,
    /// Attacks attempted and attacks refused so far, by class.
    pub(crate) counters: AdversaryCounters,
    /// Counterfeits in flight, keyed by `(receiving ISP, attestation
    /// nonce)` — consulted at delivery time to attribute acceptances
    /// and refusals to their attack class. Replayed acks are *not*
    /// entered here: their nonce also rides the legitimate copy, and
    /// the per-receiver nonce set refuses whichever arrives second.
    injected: BTreeMap<(u32, u64), AttackClass>,
    /// Nonces whose ack the adversary replayed, keyed like `injected`.
    /// Consumed by the first `ReplayedNonce` refusal at that receiver,
    /// attributing it to the attack (`replays_refused`) rather than to
    /// a network duplication.
    replayed: BTreeSet<(u32, u64)>,
    /// Every ISP's signing key — a colluding ring shares key material,
    /// and the simulation simply holds all of it (mutating another
    /// ISP's state from inside a tap would also violate the declared
    /// racecheck footprint). Empty when attestations are off: the
    /// injection classes then have nothing to sign and stay idle.
    keys: Vec<PrivateKey>,
    /// The forger's own key: *not* in any ISP's directory, so its
    /// attestations are exactly "well-formed but signed by nobody".
    forger: PrivateKey,
    /// A legitimate attestation captured off the zombie host's outbound
    /// wire, with the ISP it was originally destined for — replayed
    /// cross-destination with rotating sender identities.
    stolen: Option<(Attestation, u32)>,
    /// Monotone injection counter: rotates counterfeit identities and
    /// mints collision-free nonces in the attacker's reserved ranges.
    seq: u64,
}

impl AdversaryEngine {
    /// The engine for `config`'s plan, or `None` when it carries no
    /// adversary clause. `keys` are the ISPs' attestation signing keys
    /// (empty when attestations are off). Deterministic from `seed`,
    /// independent of every other stream.
    pub(crate) fn from_plan(
        config: &ZmailConfig,
        seed: u64,
        keys: Vec<PrivateKey>,
    ) -> Option<Self> {
        let clauses: Vec<AdversaryFault> = config
            .faults
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::Adversary(a) => Some(*a),
                _ => None,
            })
            .collect();
        if clauses.is_empty() {
            return None;
        }
        let mut forger_rng = SmallRng::seed_from_u64(seed ^ 0xF06E_F06E);
        Some(AdversaryEngine {
            clauses,
            sampler: Sampler::new(seed ^ 0xAD5E_ED00),
            counters: AdversaryCounters::default(),
            injected: BTreeMap::new(),
            replayed: BTreeSet::new(),
            keys,
            forger: *KeyPair::generate(&mut forger_rng).private(),
            stolen: None,
            seq: 0,
        })
    }

    /// The wire tap: run on every outbound email of `origin`, before the
    /// channel-fault verdict (the adversary acts at the origin, the
    /// network acts on the wire). Every active clause owned by the
    /// sending ISP gets a chance to mutate the send (strip its
    /// signature), capture it (replay, identity theft), or ride on it to
    /// emit counterfeits. Returns what the adversary puts on its own
    /// wire: the attack it belongs to, the message (addressed to its
    /// victim), and the delay after this send.
    pub(crate) fn tap(
        &mut self,
        config: &ZmailConfig,
        now: SimTime,
        origin: u32,
        email: &mut EmailMsg,
    ) -> Vec<(AttackClass, EmailMsg, SimDuration)> {
        let latency = config.net_latency;
        let mut wire = Vec::new();
        for idx in 0..self.clauses.len() {
            let c = self.clauses[idx];
            if c.isp != origin || !c.active(now) {
                continue;
            }
            match c.class {
                // Relay malware drops the `X-Zmail-Sig` header from
                // paid outbound mail. The receiver refuses the unsigned
                // payment claim; the already-debited e-penny is gone
                // (accounted at refusal time).
                AttackClass::Strip => {
                    if email.paid && email.attestation.is_some() && self.sampler.bernoulli(c.p) {
                        email.attestation = None;
                        self.fired(c.class);
                    }
                }
                // Refund farming: capture an outbound §5 ack and replay
                // a byte-identical copy, hoping for a second refund —
                // one debit, two credit claims, which the receiver's
                // nonce set must collapse back to one.
                AttackClass::ReplayAck => {
                    let Some(att) = email.attestation else {
                        continue;
                    };
                    if email.kind == MailKind::Ack && email.paid && self.sampler.bernoulli(c.p) {
                        self.replayed.insert((email.to.isp, att.nonce));
                        self.fired(c.class);
                        // The replay trails the original so the nonce
                        // set refuses the copy, not the real refund.
                        wire.push((c.class, email.clone(), latency + latency));
                    }
                }
                AttackClass::Forge | AttackClass::Ring | AttackClass::RotatingZombie => {
                    // The botnet steals the first legitimate attestation
                    // seen on its host's wire.
                    if c.class == AttackClass::RotatingZombie && self.stolen.is_none() {
                        if let Some(att) = email.attestation {
                            self.stolen = Some((att, email.to.isp));
                        }
                    }
                    if !self.sampler.bernoulli(c.p) {
                        continue;
                    }
                    let Some((msg, nonce)) = self.counterfeit(config, &c) else {
                        continue;
                    };
                    self.injected.insert((msg.to.isp, nonce), c.class);
                    self.fired(c.class);
                    wire.push((c.class, msg, latency));
                }
            }
        }
        wire
    }

    /// The paid claim (and its attestation nonce) a firing injection
    /// clause sends: one e-penny nobody was debited for. `None` when the
    /// attacker lacks what the claim needs — a key, a stolen
    /// attestation, a compliant victim.
    fn counterfeit(&mut self, config: &ZmailConfig, c: &AdversaryFault) -> Option<(EmailMsg, u64)> {
        let (dest, user, kind, att) = match c.class {
            // Header forgery: a counterfeit paid claim signed with a key
            // no directory knows. Fields are correctly bound — only the
            // signature check can catch it.
            AttackClass::Forge => {
                let user = self.next_identity(config);
                let dest = self.pick_dest(config, c.isp, &[c.isp])?;
                let att = self.sign(&self.forger, c.isp, user, dest, 47);
                (dest, user, MailKind::Spam, att)
            }
            // Colluding ring: the attacker signs with its *real* key a
            // payment it never debited, addressed to its accomplice.
            // Verification passes by construction — only the
            // conservation audit and the §4.4 pair check can convict
            // the pair.
            AttackClass::Ring => {
                let key = *self.keys.get(c.isp as usize)?;
                let user = self.next_identity(config);
                let att = self.sign(&key, c.isp, user, c.accomplice, 46);
                (c.accomplice, user, MailKind::Spam, att)
            }
            // Zombie botnet: spray copies of the stolen attestation to
            // *other* ISPs under rotating sender identities.
            // Per-receiver nonce sets don't catch a cross-destination
            // replay — the field-binding check must.
            AttackClass::RotatingZombie => {
                let (att, orig_dest) = self.stolen?;
                let user = self.next_identity(config);
                let dest = self.pick_dest(config, c.isp, &[c.isp, orig_dest])?;
                (dest, user, MailKind::VirusSpam, att)
            }
            AttackClass::Strip | AttackClass::ReplayAck => return None,
        };
        let msg = EmailMsg {
            from: UserAddr::new(c.isp, user),
            to: UserAddr::new(dest, user),
            kind,
            paid: true,
            attestation: Some(att),
        };
        Some((msg, att.nonce))
    }

    /// Advances the injection counter and returns the user index the
    /// next counterfeit's rotating identities use.
    fn next_identity(&mut self, config: &ZmailConfig) -> u32 {
        self.seq += 1;
        self.seq as u32 % config.users_per_isp.max(1)
    }

    /// Signs a one-e-penny claim from `isp` to `dest` under `key`, its
    /// nonce minted in the range `range_bit` reserves for the class.
    fn sign(
        &self,
        key: &PrivateKey,
        isp: u32,
        user: u32,
        dest: u32,
        range_bit: u32,
    ) -> Attestation {
        let nonce = (u64::from(isp) << 48) | (1 << range_bit) | self.seq;
        Attestation::sign(key, isp, user, dest, user, 1, nonce, None)
    }

    /// First compliant ISP scanning cyclically from a start that rotates
    /// with the injection counter, excluding `exclude` — the counterfeit
    /// target chooser (deterministic, no sampler draw).
    fn pick_dest(&self, config: &ZmailConfig, attacker: u32, exclude: &[u32]) -> Option<u32> {
        let n = config.isps;
        let start = (attacker + 1 + self.seq as u32) % n.max(1);
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&d| !exclude.contains(&d) && config.is_compliant(IspId(d)))
    }

    /// Tallies one attack attempt of `class`.
    fn fired(&mut self, class: AttackClass) {
        let m = AdversaryMetrics::get();
        let (tally, metric) = match class {
            AttackClass::Forge => (&mut self.counters.forged, &m.forged),
            AttackClass::Strip => (&mut self.counters.stripped, &m.stripped),
            AttackClass::ReplayAck => (&mut self.counters.replays, &m.replays),
            AttackClass::Ring => (&mut self.counters.ring_counterfeits, &m.ring_counterfeits),
            AttackClass::RotatingZombie => (&mut self.counters.zombie_sends, &m.zombie_sends),
        };
        *tally += 1;
        metric.inc();
    }

    /// Attributes a delivery the receiver `to` *accepted*: `Some(class)`
    /// when it was one of this engine's counterfeits — value credited
    /// that nobody was debited for.
    pub(crate) fn landed(&mut self, to: u32, email: &EmailMsg) -> Option<AttackClass> {
        let nonce = email.attestation.as_ref()?.nonce;
        let class = self.injected.remove(&(to, nonce))?;
        if class == AttackClass::Ring {
            self.counters.ring_accepted += 1;
        }
        Some(class)
    }

    /// Attributes a delivery the receiver `to` *refused* for `cause` to
    /// the attack it belonged to, and tallies the refusal. `engine` is
    /// the world's, `None` when the plan carries no adversary: the
    /// refusal is then the network's doing (a duplicated copy caught by
    /// the nonce set) and only the telemetry counter moves.
    ///
    /// `Forge`, `Ring` and `RotatingZombie` mean a counterfeit was
    /// turned away — no real value was riding on it. `Strip` and
    /// `ReplayAck` mean the adversary got a *real* payment (or its
    /// copy) refused.
    pub(crate) fn refused(
        engine: Option<&mut Self>,
        to: u32,
        email: &EmailMsg,
        cause: RefusalCause,
    ) -> Option<AttackClass> {
        AdversaryMetrics::get().refusals.inc();
        let engine = engine?;
        let nonce = email.attestation.as_ref().map(|att| att.nonce);
        let class = match nonce.and_then(|n| engine.injected.remove(&(to, n))) {
            Some(class) => class,
            None => match cause {
                RefusalCause::MissingAttestation => AttackClass::Strip,
                RefusalCause::ReplayedNonce
                    if nonce.is_some_and(|n| engine.replayed.remove(&(to, n))) =>
                {
                    AttackClass::ReplayAck
                }
                // A re-targeted zombie copy whose `injected` entry was
                // already consumed by an earlier copy to the same
                // receiver (same stolen nonce, same key).
                RefusalCause::FieldMismatch
                    if nonce.is_some() && engine.stolen.map(|(att, _)| att.nonce) == nonce =>
                {
                    AttackClass::RotatingZombie
                }
                _ => return None,
            },
        };
        let counters = &mut engine.counters;
        match class {
            AttackClass::Forge => counters.forged_refused += 1,
            AttackClass::Strip => counters.stripped_refused += 1,
            AttackClass::ReplayAck => counters.replays_refused += 1,
            AttackClass::RotatingZombie => counters.zombie_refused += 1,
            // A ring counterfeit verifies by construction; one refused
            // anyway (a duplicate nonce) has no tally of its own.
            AttackClass::Ring => {}
        }
        Some(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmail_fault::Window;

    const ISPS: u32 = 3;
    const LATENCY_MS: u64 = 50;

    /// ISP 0 mounting `class` (accomplice: ISP 1) on every eligible send
    /// for the whole run, holding every ISP's real key. ISPs listed in
    /// `non_compliant` keep no ledger and so are no victims.
    fn mount(class: AttackClass, non_compliant: &[u32]) -> (ZmailConfig, AdversaryEngine) {
        let clause = AdversaryFault {
            class,
            isp: 0,
            accomplice: 1,
            p: 1.0,
            window: Window::new(SimTime::ZERO, SimTime::from_millis(u64::MAX)),
        };
        let config = ZmailConfig::builder(ISPS, 4)
            .attestations()
            .non_compliant(non_compliant)
            .net_latency(SimDuration::from_millis(LATENCY_MS))
            .fault(Fault::Adversary(clause))
            .build();
        let mut rng = SmallRng::seed_from_u64(7);
        let keys = (0..ISPS)
            .map(|_| *KeyPair::generate(&mut rng).private())
            .collect();
        let engine = AdversaryEngine::from_plan(&config, 7, keys).expect("the plan has a clause");
        (config, engine)
    }

    /// A paid, attested message from user 0 of ISP 0 to user 1 of ISP 2.
    fn legit(engine: &AdversaryEngine, kind: MailKind) -> EmailMsg {
        let att = Attestation::sign(&engine.keys[0], 0, 0, 2, 1, 1, 99, None);
        EmailMsg {
            from: UserAddr::new(0, 0),
            to: UserAddr::new(2, 1),
            kind,
            paid: true,
            attestation: Some(att),
        }
    }

    fn tap(
        engine: &mut AdversaryEngine,
        config: &ZmailConfig,
        email: &mut EmailMsg,
    ) -> Vec<(AttackClass, EmailMsg, SimDuration)> {
        engine.tap(config, SimTime::from_millis(10), 0, email)
    }

    const CAUSES: [RefusalCause; 4] = [
        RefusalCause::MissingAttestation,
        RefusalCause::BadSignature,
        RefusalCause::FieldMismatch,
        RefusalCause::ReplayedNonce,
    ];

    /// Class × fired: what goes on the adversary's wire, what happens to
    /// the tapped send, and which attempt counter moves.
    #[test]
    fn a_firing_clause_emits_its_counterfeit_and_counts_one_attempt() {
        // (class, kind of the tapped send, receiver and delay of what is
        // emitted, whether the tapped send keeps its signature)
        let table = [
            // The victim scan starts at attacker + 1 + counter.
            (AttackClass::Forge, MailKind::Personal, Some((2, 1)), true),
            (AttackClass::Strip, MailKind::Personal, None, false),
            (AttackClass::ReplayAck, MailKind::Ack, Some((2, 2)), true),
            (AttackClass::Ring, MailKind::Personal, Some((1, 1)), true),
            // Not the attacker (0), not where the stolen one was going (2).
            (
                AttackClass::RotatingZombie,
                MailKind::Personal,
                Some((1, 1)),
                true,
            ),
        ];
        for (class, kind, emitted, keeps_signature) in table {
            eprintln!("cell: {class} fired");
            let (config, mut engine) = mount(class, &[]);
            let mut email = legit(&engine, kind);
            let original = email.clone();
            let wire = tap(&mut engine, &config, &mut email);
            assert_eq!(email.attestation.is_some(), keeps_signature);
            let got: Vec<_> = wire
                .iter()
                .map(|(c, msg, delay)| (*c, msg.to.isp, delay.as_millis()))
                .collect();
            let want: Vec<_> = emitted
                .map(|(to, hops)| (class, to, hops * LATENCY_MS))
                .into_iter()
                .collect();
            assert_eq!(got, want);
            for (_, msg, _) in &wire {
                assert!(msg.paid && msg.attestation.is_some());
                assert_eq!(msg.from.isp, 0);
            }
            if class == AttackClass::ReplayAck {
                assert_eq!(wire[0].1, original, "a replay is byte-identical");
            }
            let one = |field: u64| u64::from(field == 1);
            let c = engine.counters;
            assert_eq!(c.attempts(), 1);
            assert_eq!(c.refusals() + c.ring_accepted, 0);
            let moved = match class {
                AttackClass::Forge => one(c.forged),
                AttackClass::Strip => one(c.stripped),
                AttackClass::ReplayAck => one(c.replays),
                AttackClass::Ring => one(c.ring_counterfeits),
                AttackClass::RotatingZombie => one(c.zombie_sends),
            };
            assert_eq!(moved, 1, "the attempt went to another class's counter");
        }
    }

    /// A clause whose precondition fails draws nothing and emits
    /// nothing; where it stops decides whether the injection counter —
    /// which later nonces and identities derive from — has advanced.
    #[test]
    fn an_ineligible_send_emits_nothing() {
        // Unpaid mail has no signature to strip and no refund to farm.
        for class in [AttackClass::Strip, AttackClass::ReplayAck] {
            let (config, mut engine) = mount(class, &[]);
            let mut email = legit(&engine, MailKind::Ack);
            email.paid = false;
            assert!(tap(&mut engine, &config, &mut email).is_empty());
            assert_eq!(engine.counters, AdversaryCounters::default());
        }
        // Only acks are worth replaying.
        let (config, mut engine) = mount(AttackClass::ReplayAck, &[]);
        let mut email = legit(&engine, MailKind::Personal);
        assert!(tap(&mut engine, &config, &mut email).is_empty());
        // A ring without key material stops before the counter moves.
        let (config, mut engine) = mount(AttackClass::Ring, &[]);
        let mut email = legit(&engine, MailKind::Personal);
        engine.keys.clear();
        email.attestation = None;
        assert!(tap(&mut engine, &config, &mut email).is_empty());
        assert_eq!(engine.seq, 0);
        // So does a botnet with nothing stolen yet.
        let (config, mut engine) = mount(AttackClass::RotatingZombie, &[]);
        assert!(tap(&mut engine, &config, &mut email).is_empty());
        assert_eq!(engine.seq, 0);
        // A forger (or a botnet) with no compliant victim has already
        // committed to the send: the counter advances, nothing is sent.
        for class in [AttackClass::Forge, AttackClass::RotatingZombie] {
            let (config, mut engine) = mount(class, &[1, 2]);
            let mut email = legit(&engine, MailKind::Personal);
            assert!(tap(&mut engine, &config, &mut email).is_empty());
            assert_eq!(engine.seq, 1, "{class}");
            assert_eq!(engine.counters, AdversaryCounters::default());
        }
        // Another ISP's mail is not the attacker's to tap.
        let (config, mut engine) = mount(AttackClass::Forge, &[]);
        let mut email = legit(&engine, MailKind::Personal);
        let wire = engine.tap(&config, SimTime::from_millis(10), 1, &mut email);
        assert!(wire.is_empty());
        assert_eq!(engine.seq, 0);
    }

    /// Class × landed: only an injected counterfeit is attributed, once.
    #[test]
    fn a_landed_delivery_is_attributed_to_the_counterfeit_it_was() {
        let table = [
            (
                AttackClass::Forge,
                MailKind::Personal,
                Some(AttackClass::Forge),
                0,
            ),
            (AttackClass::ReplayAck, MailKind::Ack, None, 0),
            (
                AttackClass::Ring,
                MailKind::Personal,
                Some(AttackClass::Ring),
                1,
            ),
            (
                AttackClass::RotatingZombie,
                MailKind::Personal,
                Some(AttackClass::RotatingZombie),
                0,
            ),
        ];
        for (class, kind, attributed, ring_accepted) in table {
            eprintln!("cell: {class} landed");
            let (config, mut engine) = mount(class, &[]);
            let mut email = legit(&engine, kind);
            let (_, msg, _) = tap(&mut engine, &config, &mut email).remove(0);
            let to = msg.to.isp;
            // The legitimate send the attack rode on is nobody's attack.
            assert_eq!(engine.landed(2, &email), None);
            assert_eq!(engine.landed(to, &msg), attributed);
            assert_eq!(engine.landed(to, &msg), None, "attributed twice");
            assert_eq!(engine.counters.ring_accepted, ring_accepted);
            assert_eq!(engine.counters.refusals(), 0);
        }
    }

    /// Class × refused-by-cause → attribution and refusal counter.
    #[test]
    fn a_refused_delivery_is_attributed_by_what_was_sent_and_why() {
        // A counterfeit in flight is attributed whatever the cause.
        for (class, refused_field) in [
            (AttackClass::Forge, Some(1)),
            (AttackClass::Ring, None),
            (AttackClass::RotatingZombie, Some(1)),
        ] {
            for cause in CAUSES {
                eprintln!("cell: {class} refused for {cause}");
                let (config, mut engine) = mount(class, &[]);
                let mut email = legit(&engine, MailKind::Personal);
                let (_, msg, _) = tap(&mut engine, &config, &mut email).remove(0);
                let to = msg.to.isp;
                let got = AdversaryEngine::refused(Some(&mut engine), to, &msg, cause);
                assert_eq!(got, Some(class));
                let c = engine.counters;
                let field = match class {
                    AttackClass::Forge => c.forged_refused,
                    _ => c.zombie_refused,
                };
                assert_eq!(c.refusals(), refused_field.unwrap_or(0));
                assert_eq!(field, refused_field.unwrap_or(0));
                // Its entry is consumed: a second copy with the stolen
                // nonce is still the botnet's when the binding check
                // caught it, and nobody's otherwise.
                for cause in CAUSES {
                    let again = AdversaryEngine::refused(Some(&mut engine), to, &msg, cause);
                    let want = match (class, cause) {
                        (_, RefusalCause::MissingAttestation) => Some(AttackClass::Strip),
                        (AttackClass::RotatingZombie, RefusalCause::FieldMismatch) => Some(class),
                        _ => None,
                    };
                    assert_eq!(again, want, "second refusal for {cause}");
                }
            }
        }
        // A stripped payment is missing its attestation.
        let (config, mut engine) = mount(AttackClass::Strip, &[]);
        let mut email = legit(&engine, MailKind::Personal);
        tap(&mut engine, &config, &mut email);
        let cause = RefusalCause::MissingAttestation;
        let got = AdversaryEngine::refused(Some(&mut engine), 2, &email, cause);
        assert_eq!(got, Some(AttackClass::Strip));
        assert_eq!(engine.counters.stripped_refused, 1);
        // The first replayed-nonce refusal at the receiver is the
        // farmer's copy; a later one is the network's duplicate.
        let (config, mut engine) = mount(AttackClass::ReplayAck, &[]);
        let mut email = legit(&engine, MailKind::Ack);
        let (_, copy, _) = tap(&mut engine, &config, &mut email).remove(0);
        let to = copy.to.isp;
        for cause in [RefusalCause::BadSignature, RefusalCause::FieldMismatch] {
            assert_eq!(
                AdversaryEngine::refused(Some(&mut engine), to, &copy, cause),
                None
            );
        }
        let cause = RefusalCause::ReplayedNonce;
        let first = AdversaryEngine::refused(Some(&mut engine), to, &copy, cause);
        let second = AdversaryEngine::refused(Some(&mut engine), to, &copy, cause);
        assert_eq!((first, second), (Some(AttackClass::ReplayAck), None));
        assert_eq!(engine.counters.replays_refused, 1);
        assert_eq!(engine.counters.refusals(), 1);
        // Without an engine every refusal is the network's.
        for cause in CAUSES {
            assert_eq!(AdversaryEngine::refused(None, to, &copy, cause), None);
        }
    }

    #[test]
    fn a_plan_without_adversary_clauses_builds_no_engine() {
        let config = ZmailConfig::builder(ISPS, 4)
            .lossy_network(0.1, 0.1)
            .build();
        assert!(AdversaryEngine::from_plan(&config, 7, Vec::new()).is_none());
    }
}
