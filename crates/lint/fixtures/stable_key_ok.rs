// Fixture: distinct high bytes, and a `LogNames` table whose dotted
// literals count as produced counter and message-kind names.

const STABLE_VOTE_TAG: u64 = 1 << 56;
const STABLE_FENCE_KEY: u64 = 2 << 56;

pub struct LogNames {
    pub stack: &'static str,
    pub kinds: [&'static str; 2],
    pub reconfigs: &'static str,
}

static LOG_NAMES: LogNames = LogNames {
    stack: "demo",
    kinds: ["demo.join_request", "demo.state_transfer"],
    reconfigs: "demo.reconfigs",
};
