//! The tenant identity — the isolation domain everything else keys on.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies one tenant (customer / isolation domain).
///
/// Tenant `0` is [`TenantId::SYSTEM`]: the platform's own domain, used by
/// runtime daemons and by every call site written before tenancy existed.
/// A single-tenant deployment therefore behaves exactly as it did without
/// this crate — everything lives in one domain and no check can fire.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The platform's own domain (tenant `0`).
    pub const SYSTEM: TenantId = TenantId(0);

    /// The raw numeric id (the label value telemetry metrics carry).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_is_the_default_domain() {
        assert_eq!(TenantId::default(), TenantId::SYSTEM);
        assert_eq!(TenantId::SYSTEM.raw(), 0);
        assert_eq!(TenantId(3).to_string(), "t3");
        assert_eq!(TenantId(3).raw(), 3);
    }
}
