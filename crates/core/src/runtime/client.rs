//! The blocking client of the real runtimes: one implementation over
//! any [`Port`].

// lint:allow-file(wallclock) real-time client: per-operation deadlines come from the host clock by design
use crate::model::{
    LocationDescriptor, LsError, Micros, NeighborAnswer, ObjectId, RangeAnswer, RangeQuery,
    Sighting,
};
use crate::proto::Message;
use crate::runtime::ops::{self, Classify, Op, UpdateOutcome};
use crate::runtime::sharded::Shared;
use hiloc_geo::Point;
use hiloc_net::{ClientId, CorrIdGen, Envelope, Port, SendOutcome, ServerId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A blocking client of a [`ShardedDeployment`](super::ShardedDeployment),
/// generic over the transport's client-side [`Port`] (see the
/// [`SyncClient`](super::SyncClient) and [`UdpClient`](super::UdpClient)
/// aliases).
///
/// One client per tracked object (its id is the object's registrant
/// endpoint) or per querying application. Every operation sends one
/// request from [`ops`] and waits up to the timeout for the reply that
/// definition recognises; unrelated messages arriving meanwhile are
/// stashed for later operations.
pub struct Client<L> {
    id: ClientId,
    port: L,
    shared: Arc<Shared>,
    corr: CorrIdGen,
    epoch: Instant,
    timeout: Duration,
    stash: VecDeque<Message>,
}

impl<L> std::fmt::Debug for Client<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").field("id", &self.id).finish()
    }
}

impl<L: Port<Message>> Client<L> {
    pub(crate) fn new(id: ClientId, port: L, shared: Arc<Shared>, epoch: Instant) -> Self {
        Client {
            id,
            port,
            shared,
            corr: CorrIdGen::for_client(id),
            epoch,
            timeout: Duration::from_secs(5),
            stash: VecDeque::new(),
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Microseconds since deployment start (for sighting timestamps).
    pub fn now_us(&self) -> Micros {
        self.epoch.elapsed().as_micros() as Micros
    }

    /// Sets the per-operation timeout (default 5 s).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Hands one envelope to the port, charging a shed to its
    /// destination server.
    fn send(&self, to: ServerId, msg: Message) -> SendOutcome {
        let outcome = self.port.send(Envelope::new(self.id.into(), to.into(), msg));
        if outcome == SendOutcome::Shed {
            self.shared.record_shed(to);
        }
        outcome
    }

    /// Fire-and-forget position update: no ack wait, no retry. Returns
    /// `true` when the envelope left this client, `false` when it was
    /// shed at a full inbox or unrouted — the overload-generator
    /// primitive (a blocking [`Client::update`] would throttle itself
    /// to the server's drain rate and never overflow an inbox).
    pub fn update_nowait(&mut self, agent: ServerId, sighting: Sighting) -> bool {
        self.send(agent, ops::update(sighting).request) == SendOutcome::Delivered
    }

    /// Takes every buffered message — stashed and already delivered to
    /// the port — out of this client, so late acks from fire-and-forget
    /// bursts or timed-out operations cannot satisfy a later wait.
    /// Returns what it removed: the asynchronous notifications among
    /// them (`AgentChanged`, `PositionProbe`, `NotifyAvailAcc`) are the
    /// caller's to act on.
    pub fn drain(&mut self) -> Vec<Message> {
        let mut drained: Vec<Message> = self.stash.drain(..).collect();
        // A zero wait on a cold UDP socket skips the read, so the poll is 1 ms.
        while let Ok(Some(env)) = self.port.recv_timeout(Duration::from_millis(1)) {
            drained.push(env.msg);
        }
        drained
    }

    /// Waits for the message `classify` accepts: first among the
    /// stash, then on the port until the timeout.
    fn wait_for<R>(&mut self, classify: impl Classify<R>) -> Result<R, LsError> {
        if let Some(reply) = ops::take_reply(&mut self.stash, &classify) {
            return reply;
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(LsError::Timeout);
            }
            match self.port.recv_timeout(deadline - now) {
                Err(_) => return Err(LsError::NoRoute),
                Ok(None) => return Err(LsError::Timeout),
                Ok(Some(mut env)) => match classify(&mut env.msg) {
                    Some(reply) => return reply,
                    None => self.stash.push_back(env.msg),
                },
            }
        }
    }

    fn call<R>(&mut self, to: ServerId, op: Op<impl Classify<R>>) -> Result<R, LsError> {
        // A request shed at a full inbox is a lost datagram to its
        // sender: the wait below ends in a timeout. An unroutable one
        // can never be answered, so it fails at once.
        if self.send(to, op.request) == SendOutcome::NoRoute {
            return Err(LsError::NoRoute);
        }
        self.wait_for(op.classify)
    }

    /// Registers a tracked object; this client is the registrant.
    /// Returns `(agent, offeredAcc)`.
    ///
    /// # Errors
    ///
    /// [`LsError::AccuracyUnavailable`] when the accuracy range cannot
    /// be met, [`LsError::NoRoute`] when `entry` is not a server of
    /// this deployment, [`LsError::Timeout`] when no response arrives.
    pub fn register(
        &mut self,
        entry: ServerId,
        sighting: Sighting,
        des_acc_m: f64,
        min_acc_m: f64,
        max_speed_mps: f64,
    ) -> Result<(ServerId, f64), LsError> {
        let corr = self.corr.next_id();
        let registrant = self.id.into();
        self.call(
            entry,
            ops::register(sighting, des_acc_m, min_acc_m, max_speed_mps, registrant, corr),
        )
    }

    /// Sends a position update to `agent`, waiting for the outcome.
    ///
    /// # Errors
    ///
    /// [`LsError::NoRoute`] or [`LsError::Timeout`].
    pub fn update(
        &mut self,
        agent: ServerId,
        sighting: Sighting,
    ) -> Result<UpdateOutcome, LsError> {
        self.call(agent, ops::update(sighting))
    }

    /// Sends a coalesced batch of position updates (one
    /// [`Message::UpdateBatch`] envelope) to `agent` and waits for the
    /// batch acknowledgement — the bulk-reporting primitive (no
    /// benchmark workload sends batches; `runtime_transports.rs`
    /// covers it on both transports). Returns the `(object, offered
    /// accuracy)` pairs applied in place; objects that triggered a
    /// handover or deregistration are missing from the list and
    /// produce their usual individual messages.
    ///
    /// # Errors
    ///
    /// [`LsError::NoRoute`], or [`LsError::Timeout`] when no batch ack
    /// arrives.
    pub fn update_batch(
        &mut self,
        agent: ServerId,
        sightings: Vec<Sighting>,
    ) -> Result<Vec<(ObjectId, f64)>, LsError> {
        let corr = self.corr.next_id();
        self.call(agent, ops::update_batch(sightings, corr))
    }

    /// Position query via `entry`.
    ///
    /// # Errors
    ///
    /// [`LsError::UnknownObject`], [`LsError::NoRoute`] or
    /// [`LsError::Timeout`].
    pub fn pos_query(
        &mut self,
        entry: ServerId,
        oid: ObjectId,
    ) -> Result<LocationDescriptor, LsError> {
        let corr = self.corr.next_id();
        self.call(entry, ops::pos_query(oid, corr))
    }

    /// Range query via `entry`.
    ///
    /// # Errors
    ///
    /// [`LsError::NoRoute`], or [`LsError::Timeout`] when no answer
    /// arrives.
    pub fn range_query(
        &mut self,
        entry: ServerId,
        query: RangeQuery,
    ) -> Result<RangeAnswer, LsError> {
        let corr = self.corr.next_id();
        self.call(entry, ops::range_query(query, corr))
    }

    /// Nearest-neighbor query via `entry`.
    ///
    /// # Errors
    ///
    /// [`LsError::NoRoute`], or [`LsError::Timeout`] when no answer
    /// arrives.
    pub fn neighbor_query(
        &mut self,
        entry: ServerId,
        p: Point,
        req_acc_m: f64,
        near_qual_m: f64,
    ) -> Result<NeighborAnswer, LsError> {
        let corr = self.corr.next_id();
        self.call(entry, ops::neighbor_query(p, req_acc_m, near_qual_m, corr))
    }

    /// Explicit deregistration (fire-and-forget).
    pub fn deregister(&mut self, agent: ServerId, oid: ObjectId) {
        self.send(agent, ops::deregister(oid));
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::transport::{CHANNEL_FIRST_CLIENT, UDP_FIRST_CLIENT};
    use hiloc_net::{ClientId, CorrId, CorrIdGen, ServerId};
    use std::collections::BTreeSet;

    fn first_ids(mut g: CorrIdGen) -> Vec<CorrId> {
        (0..3).map(|_| g.next_id()).collect()
    }

    #[test]
    fn client_corr_ids_never_collide_with_server_corr_ids() {
        const N: u64 = 256;
        let servers: BTreeSet<CorrId> =
            (0..N as u32).flat_map(|s| first_ids(CorrIdGen::for_server(ServerId(s)))).collect();
        for first in [CHANNEL_FIRST_CLIENT, UDP_FIRST_CLIENT] {
            let mut clients = BTreeSet::new();
            for id in first..first + N {
                for c in first_ids(CorrIdGen::for_client(ClientId(id))) {
                    assert!(!servers.contains(&c), "client {id} draws a server's {c}");
                    assert!(clients.insert(c), "client {id} draws another client's {c}");
                }
            }
        }
    }
}
