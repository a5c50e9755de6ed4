//! Engine-free expected-image oracle.
//!
//! Walks each write phase's datatypes directly — gather the memtype into
//! a packed stream, then stream the file view's pieces into a growable
//! byte image — so differential suites get a referee that shares *no*
//! code with either collective engine. Reads past the image's end see
//! zeros, matching PFS semantics for reads past EOF.

use crate::spec::{PhaseOp, PhaseSpec, RankPlan, WorkloadSpec};
use flexio_types::{flatten_shared, FileView};

/// The expected byte image of the shared file, plus expected read-backs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Oracle {
    image: Vec<u8>,
}

impl Oracle {
    /// An empty (zero-length) file.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// The image after applying every write phase of `spec` in order.
    pub fn from_spec(spec: &WorkloadSpec) -> Oracle {
        let mut o = Oracle::new();
        for phase in &spec.phases {
            o.apply_phase(phase);
        }
        o
    }

    /// Apply one phase (reads are no-ops on the image).
    pub fn apply_phase(&mut self, phase: &PhaseSpec) {
        if phase.op != PhaseOp::Write {
            return;
        }
        for step in 0..phase.steps {
            for plan in &phase.plans {
                self.apply_write(plan, step);
            }
        }
    }

    /// Apply one rank's write of one step.
    pub fn apply_write(&mut self, plan: &RankPlan, step: u64) {
        let total = plan.total_bytes();
        if total == 0 {
            return;
        }
        let mut packed = vec![0u8; total as usize];
        plan.mem_layout().gather(&plan.step_buffer(step), 0, &mut packed);
        let view = FileView::new(plan.disp, flatten_shared(&plan.filetype).0, 1)
            .expect("plan filetype must form a valid view");
        let mut cur = view.cursor(plan.offset_etypes);
        let mut consumed = 0u64;
        while consumed < total {
            let p = cur.take(total - consumed);
            let end = (p.file_off + p.len) as usize;
            if self.image.len() < end {
                self.image.resize(end, 0);
            }
            self.image[p.file_off as usize..end]
                .copy_from_slice(&packed[consumed as usize..(consumed + p.len) as usize]);
            consumed += p.len;
        }
    }

    /// The buffer a rank must see after collectively reading `plan`
    /// against the current image: mapped bytes from the image (zeros past
    /// its end), holes in the memtype left zero.
    pub fn expected_read(&self, plan: &RankPlan) -> Vec<u8> {
        let total = plan.total_bytes();
        let mut buffer = vec![0u8; plan.buf_len()];
        if total == 0 {
            return buffer;
        }
        let mut packed = vec![0u8; total as usize];
        let view = FileView::new(plan.disp, flatten_shared(&plan.filetype).0, 1)
            .expect("plan filetype must form a valid view");
        let mut cur = view.cursor(plan.offset_etypes);
        let mut consumed = 0u64;
        while consumed < total {
            let p = cur.take(total - consumed);
            let fo = p.file_off as usize;
            let have = self.image.len().saturating_sub(fo).min(p.len as usize);
            if have > 0 {
                packed[consumed as usize..consumed as usize + have]
                    .copy_from_slice(&self.image[fo..fo + have]);
            }
            consumed += p.len;
        }
        plan.mem_layout().scatter(&mut buffer, 0, &packed);
        buffer
    }

    /// The expected image bytes.
    pub fn image(&self) -> &[u8] {
        &self.image
    }
}

/// Byte equality up to trailing zeros: a file image and its oracle may
/// legitimately differ in length (page-granular sieve writes, reads past
/// EOF), but never in content.
pub fn eq_padded(a: &[u8], b: &[u8]) -> bool {
    let n = a.len().min(b.len());
    a[..n] == b[..n] && a[n..].iter().chain(&b[n..]).all(|&x| x == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{checkpoint_spec, restart_spec};

    #[test]
    fn checkpoint_image_interleaves_tiles() {
        let spec = checkpoint_spec(3, 2, 4, 2, 1);
        let o = Oracle::from_spec(&spec);
        // 2 ranks × 2 reps of 4-byte tiles → 16-byte image; rank 0 owns
        // bytes [0,4) and [8,12), rank 1 the rest.
        assert_eq!(o.image().len(), 16);
        let p0 = &spec.phases[0].plans[0];
        let p1 = &spec.phases[0].plans[1];
        let b0 = p0.step_buffer(0);
        let b1 = p1.step_buffer(0);
        assert_eq!(&o.image()[0..4], &b0[0..4]);
        assert_eq!(&o.image()[4..8], &b1[0..4]);
        assert_eq!(&o.image()[8..12], &b0[4..8]);
        assert_eq!(&o.image()[12..16], &b1[4..8]);
    }

    #[test]
    fn later_epochs_overwrite_earlier_ones() {
        let spec = checkpoint_spec(3, 2, 4, 2, 3);
        let o = Oracle::from_spec(&spec);
        let last = spec.phases[0].plans[0].step_buffer(2);
        assert_eq!(&o.image()[0..4], &last[0..4]);
    }

    #[test]
    fn expected_read_zero_fills_past_eof() {
        let spec = restart_spec(9, 2, 3, 10, 1, 6);
        let o = Oracle::from_spec(&spec);
        assert_eq!(o.image().len(), 10);
        // The read partition covers 16 elements; its tail crosses EOF.
        let tail = spec.phases[1].plans.last().unwrap();
        let got = o.expected_read(tail);
        assert!(!got.is_empty());
        // Reconstructing the full read side must reproduce image + zeros.
        let mut all = Vec::new();
        for p in &spec.phases[1].plans {
            all.extend(o.expected_read(p));
        }
        assert_eq!(&all[..10], o.image());
        assert!(all[10..].iter().all(|&b| b == 0));
    }

    #[test]
    fn eq_padded_ignores_only_trailing_zeros() {
        assert!(eq_padded(&[1, 2], &[1, 2]));
        assert!(eq_padded(&[], &[]));
        assert!(eq_padded(&[1, 2], &[1, 2, 0, 0]));
        assert!(eq_padded(&[1, 2, 0, 0], &[1, 2]));
        assert!(eq_padded(&[], &[0; 4]));
        assert!(eq_padded(&[0; 4], &[]));
        assert!(!eq_padded(&[1, 2], &[1, 2, 3]));
        assert!(!eq_padded(&[1, 2, 0, 3], &[1, 2]));
        assert!(!eq_padded(&[1, 2, 0], &[1, 3]));
        assert!(!eq_padded(&[1], &[2]));
    }
}
