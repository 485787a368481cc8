// Fixture: two stable-store key constants share high byte 3; the hex
// spelling of 0x13 and the shifts that are not stable keys stay silent.

const STABLE_SNAPSHOT_KEY: u64 = 3 << 56;
pub const STABLE_SEQ_KEY: u64 = 3 << 56;
const STABLE_CONFIG_KEY: u64 = 0x13 << 56;
const TIMER_SHIFT: u32 = 56;
const RECONFIG_BASE: u64 = 1 << 62;

fn vote_key(instance: u64) -> u64 {
    debug_assert!(instance < (1 << 56));
    STABLE_SNAPSHOT_KEY | instance
}

#[cfg(test)]
mod tests {
    const TEST_KEY: u64 = 3 << 56;
}
