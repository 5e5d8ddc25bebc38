//! Derive macros that expand to nothing: the bound files write
//! `#[derive(Serialize, Deserialize)]` but the benchmark never serialises.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
