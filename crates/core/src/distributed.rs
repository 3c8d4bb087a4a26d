//! The paper's step 4 on a cluster: exchange the compressed samples once,
//! then interpolate (Fig. 1b, Eq. 6; DESIGN.md §5k).
//!
//! [`ConvolveSession::exchange`] is the one distributed path. Given a
//! [`Deployment`] — which rank computes each sub-domain, which region each
//! rank folds — a rank compresses its own nonzero sub-domains exactly, sends
//! each peer only the samples of the octree cells meeting the peer's region,
//! runs one collective, decodes every frame into typed [`CommError`]s rather
//! than panics, and folds into its region in ascending domain id.
//!
//! One frame per (sender, receiver) pair, little-endian:
//!
//! ```text
//! u64 ndomains | ndomains × ( u64 id | f64 × s(id) )
//! ```
//!
//! The ids are strictly ascending, one per nonzero domain the sender
//! computes. `s(id)` counts the samples of the cells of `id`'s plan that meet
//! the receiver's region, in plan order; the cells themselves are never on
//! the wire, the receiver rebuilds them from its own plan cache. A frame thus
//! costs `8 + 8·ndomains` bytes on top of its samples; a rank's frame to
//! itself is empty.
//!
//! | mode | collective | domains of a dead rank |
//! |---|---|---|
//! | `Normal` | `alltoall_surviving` | [`CommError::PeerCrashed`] |
//! | `Degraded` | `alltoall_surviving` | rebuilt at the coarsest rate |
//! | `Recover(policy)` | `alltoall_converged` | claimed per view by [`RecoveryPlanner`] and recomputed exactly, the rest rebuilt coarse |

use std::collections::BTreeMap;

use lcc_comm::{ClusterView, CommError, CommWorld};
use lcc_greens::KernelSpectrum;
use lcc_grid::{decompose_uniform, BoxRegion, Grid3};
use lcc_obs::codec::{Reader, Writer};
use lcc_octree::{CompressedField, RegionPayload};

use crate::lowcomm::{ConvolveReport, LowCommConvolver};
use crate::recovery::RecoveryPlanner;
use crate::session::{ConvolveMode, ConvolveSession};

/// Who computes what, and who folds where. Domain ids index
/// `decompose_uniform(n, k)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Deployment {
    /// The rank that computes each domain id.
    owners: Vec<usize>,
    /// The region each rank folds.
    regions: Vec<BoxRegion>,
}

impl Deployment {
    /// Domain `id` is computed on rank `id % p`; every rank folds the cube.
    pub fn replicated(n: usize, k: usize, p: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        let count = decompose_uniform(n, k).len();
        Deployment {
            owners: (0..count).map(|id| id % p).collect(),
            regions: vec![BoxRegion::cube(n); p],
        }
    }

    /// Rank `r` folds the x-slab `[r·n/p, (r+1)·n/p)` and computes every
    /// domain whose response region starts in it, so that no response's
    /// dense core crosses the network (DESIGN.md §5a).
    pub fn slabs(conv: &LowCommConvolver, kernel: &dyn KernelSpectrum, p: usize) -> Self {
        let (n, k) = (conv.config().n, conv.config().k);
        assert!(p >= 1 && n % p == 0, "{p} slabs do not divide n = {n}");
        let w = n / p;
        Deployment {
            owners: decompose_uniform(n, k)
                .iter()
                .map(|d| conv.response_region(d, kernel).lo[0] / w)
                .collect(),
            regions: (0..p)
                .map(|r| BoxRegion::new([r * w, 0, 0], [(r + 1) * w, n, n]))
                .collect(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.regions.len()
    }

    /// The rank that computes domain `id`.
    pub fn owner(&self, id: usize) -> usize {
        self.owners[id]
    }

    /// The region `rank` folds.
    pub fn region(&self, rank: usize) -> BoxRegion {
        self.regions[rank]
    }

    /// The domain ids `rank` computes, ascending.
    pub fn domains_of(&self, rank: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.owners.len()).filter(move |&id| self.owners[id] == rank)
    }
}

/// What one rank's [`ConvolveSession::exchange`] produced.
#[derive(Clone, Debug)]
pub struct Exchanged {
    /// The region this rank folded ([`Deployment::region`]).
    pub region: BoxRegion,
    /// The convolution over `region`, in the region's shape.
    pub result: Grid3<f64>,
    /// Mode-aware accounting of the fold.
    pub report: ConvolveReport,
    /// The membership epoch the collective completed under.
    pub epoch: u64,
}

impl ConvolveSession<'_> {
    /// This rank's share of the distributed convolution: compress, route,
    /// one collective, fold (see the [module docs](crate::distributed)).
    pub fn exchange(
        &self,
        w: &mut CommWorld,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
        deployment: &Deployment,
    ) -> Result<Exchanged, CommError> {
        let _sp = lcc_obs::span("session_exchange");
        let cfg = self.convolver().config();
        let domains = decompose_uniform(cfg.n, cfg.k);
        let rank = w.rank();
        assert!(
            deployment.ranks() == w.size() && deployment.owners.len() == domains.len(),
            "the deployment is for another world or decomposition"
        );
        // Compressions by domain id (`None`: identically zero), exact in
        // every mode and kept across membership views, so that a re-run
        // only adds the new claims.
        let exact = self.convolver().session(ConvolveMode::Normal);
        let mut computed: BTreeMap<usize, Option<CompressedField>> = BTreeMap::new();
        let mut frames = |ids: Vec<usize>| -> Vec<Vec<u8>> {
            for &id in &ids {
                computed
                    .entry(id)
                    .or_insert_with(|| exact.compress_domain(input, &domains[id], kernel));
            }
            let fields: Vec<(usize, &CompressedField)> = ids
                .iter()
                .filter_map(|&id| Some((id, computed[&id].as_ref()?)))
                .collect();
            let frame = |to| self.encode_frame(fields.iter().copied(), &deployment.region(to));
            (0..deployment.ranks())
                .map(|to| if to == rank { Vec::new() } else { frame(to) })
                .collect()
        };

        // Who sends each domain, and the orphans: the domains of dead ranks.
        let mut sender = deployment.owners.clone();
        let (slots, orphans) = if let ConvolveMode::Recover(policy) = self.mode() {
            let planner = RecoveryPlanner::new(policy);
            let plan = |view: &ClusterView| {
                let dead: Vec<usize> = view.dead_ranks().collect();
                planner.plan(&domains, |id| sender[id], &view.live_ranks(), &dead)
            };
            let (slots, _) = w.alltoall_converged(|view| {
                let mut ids: Vec<usize> = deployment.domains_of(rank).collect();
                ids.extend(plan(view).claims_for(rank).map(|c| c.domain_id));
                ids.sort_unstable();
                frames(ids)
            })?;
            let plan = plan(w.current_view());
            for c in &plan.claims {
                sender[c.domain_id] = c.claimant;
            }
            let claimed = plan.claims.iter().map(|c| (c.domain_id, c.domain));
            (slots, claimed.chain(plan.degraded).collect())
        } else {
            let slots = w.alltoall_surviving(frames(deployment.domains_of(rank).collect()))?;
            let orphans: Vec<(usize, BoxRegion)> = (0..domains.len())
                .filter(|&id| slots[sender[id]].is_none())
                .map(|id| (id, domains[id]))
                .collect();
            if let (ConvolveMode::Normal, Some(&(id, _))) = (self.mode(), orphans.first()) {
                let peer = sender[id];
                return Err(CommError::PeerCrashed { rank, peer });
            }
            (slots, orphans)
        };

        let region = deployment.region(rank);
        let mut contributions: BTreeMap<usize, CompressedField> = computed
            .into_iter()
            .filter(|&(id, _)| sender[id] == rank)
            .filter_map(|(id, f)| Some((id, f?)))
            .collect();
        for (peer, frame) in slots.iter().enumerate() {
            let Some(frame) = frame.as_ref().filter(|_| peer != rank) else {
                continue;
            };
            let expected = |id: usize| sender[id] == peer;
            contributions.extend(self.decode_frame(frame, kernel, &region, rank, peer, expected)?);
        }
        let (result, report) = self.accumulate(&contributions, input, kernel, &orphans, &region);
        let epoch = w.current_view().epoch();
        Ok(Exchanged {
            region,
            result,
            report,
            epoch,
        })
    }

    /// Encodes the frame a rank folding `region` receives for `fields`
    /// (domain id → field, ascending by id).
    pub fn encode_frame<'f>(
        &self,
        fields: impl IntoIterator<Item = (usize, &'f CompressedField)>,
        region: &BoxRegion,
    ) -> Vec<u8> {
        let fields: Vec<_> = fields.into_iter().collect();
        let mut frame = Vec::new();
        frame.put_u64(fields.len() as u64);
        for (id, f) in fields {
            frame.put_u64(id as u64);
            frame.put_f64s(&f.region_payload(region).samples);
        }
        frame
    }

    /// Decodes the frame `peer` sent to `rank`, which folds `region`, into
    /// (domain id, field) pairs whose cells meeting `region` are set.
    /// `expected(id)` says whether `peer` may send domain `id`. A frame that
    /// is ragged, ends early or runs long is [`CommError::Decode`]; an id out
    /// of range, not expected, repeated or out of order is
    /// [`CommError::UnexpectedDomain`].
    pub fn decode_frame(
        &self,
        frame: &[u8],
        kernel: &dyn KernelSpectrum,
        region: &BoxRegion,
        rank: usize,
        peer: usize,
        expected: impl Fn(usize) -> bool,
    ) -> Result<Vec<(usize, CompressedField)>, CommError> {
        let conv = self.convolver();
        let domains = decompose_uniform(conv.config().n, conv.config().k);
        let malformed = || CommError::Decode {
            rank,
            peer,
            len: frame.len(),
            elem_size: 8,
        };
        let mut r = Reader::new(frame);
        let count = r.u64().map_err(|_| malformed())?;
        let mut out: Vec<(usize, CompressedField)> = Vec::new();
        for _ in 0..count {
            let raw = r.u64().map_err(|_| malformed())?;
            let id = usize::try_from(raw).unwrap_or(usize::MAX);
            let repeated = out.last().is_some_and(|&(last, _)| last >= id);
            if id >= domains.len() || !expected(id) || repeated {
                let domain = raw;
                return Err(CommError::UnexpectedDomain { rank, peer, domain });
            }
            let plan = conv.plan_for(conv.response_region(&domains[id], kernel));
            let cells = plan.cells_intersecting(region);
            let len = cells.iter().map(|&c| plan.cells()[c].sample_count()).sum();
            let payload = RegionPayload {
                cells: cells.into_iter().map(|c| c as u32).collect(),
                samples: r.f64s(len).map_err(|_| malformed())?,
            };
            let field = CompressedField::try_from_region_payload(plan, &payload);
            out.push((id, field.map_err(|_| malformed())?));
        }
        r.finish().map_err(|_| malformed())?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use lcc_greens::GaussianKernel;
    use lcc_obs::codec::{fnv1a64, hex};

    use super::*;
    use crate::LowCommConfig;

    #[test]
    fn exchange_frame_golden() {
        let (n, k) = (16, 8);
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let region = Deployment::replicated(n, k, 2).region(0);
        let session = conv.session(ConvolveMode::Normal);
        let domain = decompose_uniform(n, k)[1];
        // Dyadic samples on the plan `decode_frame` rebuilds: exact on every
        // kernel variant, so the digest pins the encoding, not the last bits
        // of a pipeline run.
        let plan = conv.plan_for(conv.response_region(&domain, &kernel));
        let mut field = CompressedField::zeros(plan);
        for (i, s) in field.samples_mut().iter_mut().enumerate() {
            *s = i as f64 * 0.25 - 64.0;
        }
        let frame = session.encode_frame([(1, &field)], &region);
        // 7 696 bytes: pinned by length, digest and the count/id header.
        assert_eq!(frame.len(), 7696);
        assert_eq!(fnv1a64(&frame), 0x563f_3adb_8ab7_dba5);
        assert_eq!(hex(&frame[..16]), "01000000000000000100000000000000");
    }
}
