//! [`Servers`]: the one server table every runtime drives.
//!
//! The table is the only runtime code that constructs, dispatches to,
//! ticks, crashes, restarts and checkpoints a [`LocationServer`] — the
//! paper's §5 restart model written once. It reads no clock and moves
//! no envelope: every method that needs the time takes `now`, and every
//! output goes back to the caller, which routes it — a shard of
//! [`ShardedDeployment`](super::ShardedDeployment) through its local
//! queue and transport, [`SimDeployment`](super::SimDeployment) through
//! `SimNet`.

use crate::area::{Hierarchy, ServerConfig};
use crate::model::Micros;
use crate::node::{LocationServer, ServerOptions, ServerStats};
use crate::proto::Message;
use hiloc_net::{Endpoint, Envelope, ServerId};
use hiloc_storage::StorageError;

/// How a crash loses state (see
/// [`SimDeployment::crash_server_with`](super::SimDeployment::crash_server_with)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Process crash: volatile state and in-flight messages are lost,
    /// but OS-buffered WAL bytes survive (the file handle's buffers
    /// flush when the process dies gracefully enough for the OS to
    /// keep its page cache).
    Process,
    /// Power loss: additionally drops every WAL byte that was not yet
    /// fsynced — the durable store recovers exactly the synced prefix,
    /// with a torn tail repaired by the WAL's usual scan.
    PowerLoss,
}

/// The servers one driver hosts (a shard its partition, the simulator
/// all), indexed by server id. A down server has no instance: its
/// envelopes blackhole and its timers stop until a restart rebuilds it.
pub(crate) struct Servers {
    opts: ServerOptions,
    /// Server id → whether this table hosts it.
    hosted: Vec<bool>,
    /// Server id → its running instance; `None` while down (or not
    /// hosted here).
    live: Vec<Option<LocationServer>>,
}

impl Servers {
    /// An empty table whose servers are built with `opts`.
    pub(crate) fn new(opts: ServerOptions) -> Self {
        Servers { opts, hosted: Vec::new(), live: Vec::new() }
    }

    /// The options servers are (re)built with.
    pub(crate) fn options(&self) -> &ServerOptions {
        &self.opts
    }

    /// Builds the server `cfg` describes and hosts it, running; fails
    /// (hosting nothing) when its durable store will not open.
    pub(crate) fn spawn(
        &mut self,
        cfg: &ServerConfig,
    ) -> Result<&mut LocationServer, StorageError> {
        let server = LocationServer::new(cfg.clone(), self.opts.clone())?;
        let i = cfg.id.0 as usize;
        if self.live.len() <= i {
            self.hosted.resize(i + 1, false);
            self.live.resize_with(i + 1, || None);
        }
        self.hosted[i] = true;
        Ok(self.live[i].insert(server))
    }

    /// Whether server `id` lives in this table, running or down.
    pub(crate) fn hosts(&self, id: ServerId) -> bool {
        self.hosted.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Whether server `id` is hosted here and down.
    pub(crate) fn is_down(&self, id: ServerId) -> bool {
        self.hosts(id) && self.get(id).is_none()
    }

    /// The running instance of server `id`.
    pub(crate) fn get(&self, id: ServerId) -> Option<&LocationServer> {
        self.live.get(id.0 as usize)?.as_ref()
    }

    /// The running instance of server `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: ServerId) -> Option<&mut LocationServer> {
        self.live.get_mut(id.0 as usize)?.as_mut()
    }

    /// Every running server, in id order.
    pub(crate) fn running(&self) -> impl Iterator<Item = &LocationServer> {
        self.live.iter().flatten()
    }

    /// Counters of every running server, in id order.
    pub(crate) fn stats(&self) -> Vec<(ServerId, ServerStats)> {
        self.running().map(|s| (s.id(), s.stats())).collect()
    }

    /// Switches every running server's §6.5 cache configuration, and
    /// the one later (re)starts build with.
    pub(crate) fn set_caches(&mut self, cfg: crate::cache::CacheConfig) {
        self.opts.caches = cfg;
        for s in self.live.iter_mut().flatten() {
            s.set_cache_config(cfg);
        }
    }

    /// Hands one envelope to its destination server and returns what
    /// the server sent in response. `None` when the destination is not
    /// a running server of this table — down (the envelope blackholes),
    /// hosted elsewhere, or a client.
    // lint:hot_path
    pub(crate) fn deliver(
        &mut self,
        now: Micros,
        env: Envelope<Message>,
    ) -> Option<Vec<Envelope<Message>>> {
        let Endpoint::Server(id) = env.to else { return None };
        Some(self.get_mut(id)?.handle(now, env))
    }

    /// The earliest pending timer across running servers.
    pub(crate) fn next_timer(&self) -> Option<Micros> {
        self.running().filter_map(LocationServer::next_timer).min()
    }

    /// Ticks every running server whose timer is due at `now`, in id
    /// order, and again until no timer is due. Returns the outputs in
    /// the order the ticks produced them; `None` when nothing was due.
    pub(crate) fn fire_due(&mut self, now: Micros) -> Option<Vec<Envelope<Message>>> {
        let mut fired: Option<Vec<Envelope<Message>>> = None;
        loop {
            let mut any = false;
            for server in self.live.iter_mut().flatten() {
                if server.next_timer().is_some_and(|t| t <= now) {
                    let outs = server.tick(now);
                    match &mut fired {
                        Some(all) => all.extend(outs),
                        None => fired = Some(outs),
                    }
                    any = true;
                }
            }
            if !any {
                return fired;
            }
        }
    }

    /// Crashes server `id` the way `mode` loses state. Dropping the
    /// instance releases the durable store's file handles, flushing
    /// user-space buffers into the page cache; `PowerLoss` then
    /// truncates every engine file (visitor and replica WAL and
    /// snapshot, each store tearing independently) back to its last
    /// fsynced byte. (With `SyncPolicy::Always` outside a group commit
    /// the two modes coincide.) A power loss between a checkpoint's
    /// snapshot rename and its WAL reset leaves a stale-generation WAL
    /// beside a newer snapshot, which recovery arbitrates. Returns
    /// `false` when the server is not running here, or when a
    /// truncation failed (the server is down either way).
    pub(crate) fn crash(&mut self, id: ServerId, mode: CrashMode) -> bool {
        let Some(server) = self.live.get_mut(id.0 as usize).and_then(Option::take) else {
            return false;
        };
        let loss_points = match mode {
            CrashMode::Process => Vec::new(),
            CrashMode::PowerLoss => {
                let mut points = server.wal_power_loss_points();
                points.extend(server.replica_power_loss_points());
                points
            }
        };
        drop(server);
        loss_points.into_iter().all(|(path, synced)| {
            let file = std::fs::OpenOptions::new().write(true).open(path);
            file.and_then(|f| f.set_len(synced)).is_ok()
        })
    }

    /// Rebuilds server `id` from its configuration in `hierarchy` and
    /// its durable store; a running server is crash-restarted (its
    /// instance is dropped first, so the store reopens exclusively).
    /// Returns `false` when `id` is not hosted here, or when its store
    /// will not reopen (a corrupt snapshot is an error by design) — the
    /// server then stays down and the rest of the table keeps serving.
    pub(crate) fn restart(&mut self, hierarchy: &Hierarchy, id: ServerId) -> bool {
        let i = id.0 as usize;
        let Some(cfg) = hierarchy.servers().get(i).filter(|_| self.hosts(id)) else {
            return false;
        };
        self.live[i] = None;
        self.live[i] = LocationServer::new(cfg.clone(), self.opts.clone()).ok();
        self.live[i].is_some()
    }

    /// Takes a storage-engine checkpoint on running server `id` (a
    /// no-op for a volatile one). Returns `false` when it is not running
    /// here or the checkpoint write failed.
    pub(crate) fn checkpoint(&mut self, id: ServerId) -> bool {
        self.get_mut(id).is_some_and(|server| server.compact().is_ok())
    }
}
