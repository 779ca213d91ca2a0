pub mod adhoc;
pub mod federation;
pub mod kleislid;
pub mod local;
