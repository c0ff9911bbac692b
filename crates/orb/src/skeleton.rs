//! Server-side object skeletons and the typed-interface macro.

use bytes::Bytes;
use ohpc_xdr::{XdrReader, XdrWriter};

use crate::error::OrbError;
use crate::gp::GlobalPointer;

/// Errors a skeleton dispatch can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MethodError {
    /// The interface has no method in this slot.
    NoSuchMethod(u32),
    /// The method body raised an application exception.
    App(String),
    /// Arguments failed to unmarshal.
    BadArgs(String),
}

impl std::fmt::Display for MethodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodError::NoSuchMethod(m) => write!(f, "no such method {m}"),
            MethodError::App(m) => write!(f, "application error: {m}"),
            MethodError::BadArgs(m) => write!(f, "bad arguments: {m}"),
        }
    }
}

impl std::error::Error for MethodError {}

/// A server object as the ORB sees it: a type name plus a method dispatcher.
///
/// Write these by hand or generate stub + skeleton pairs with
/// [`remote_interface!`](crate::remote_interface!).
pub trait RemoteObject: Send + Sync {
    /// Interface type name, advertised in ORs.
    fn type_name(&self) -> &str;

    /// Executes method `method`, decoding arguments from `args` and encoding
    /// results into `out`.
    fn dispatch(
        &self,
        method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError>;
}

/// A generated stub's call: sends `args`, a writer from
/// [`XdrWriter::reused`], as method `method`'s request body, then gives the
/// body's buffer back to the calling thread, so the stub's next call encodes
/// into it.
#[doc(hidden)]
pub fn invoke_reusing(gp: &GlobalPointer, method: u32, args: XdrWriter) -> Result<Bytes, OrbError> {
    gp.invoke_recycling(method, args.finish(), false)
}

/// Declares a typed remote interface: a server-side trait, a skeleton
/// adapting any implementation to [`RemoteObject`], and a client stub over a
/// [`GlobalPointer`](crate::gp::GlobalPointer).
///
/// ```
/// use ohpc_orb::remote_interface;
///
/// remote_interface! {
///     type_name = "Calc";
///     trait CalcApi;
///     skeleton CalcSkeleton;
///     client CalcClient;
///     fn add(a: i32, b: i32) -> i32 = 1;
///     fn describe() -> String = 2;
/// }
///
/// struct Calc;
/// impl CalcApi for Calc {
///     fn add(&self, a: i32, b: i32) -> Result<i32, String> { Ok(a + b) }
///     fn describe(&self) -> Result<String, String> { Ok("a calculator".into()) }
/// }
/// ```
///
/// Server methods return `Result<T, String>`; the `Err` travels to the client
/// as [`OrbError::RemoteException`](crate::error::OrbError::RemoteException).
#[macro_export]
macro_rules! remote_interface {
    (
        type_name = $type_name:literal;
        trait $api:ident;
        skeleton $skeleton:ident;
        client $client:ident;
        $( fn $method:ident ( $($arg:ident : $argty:ty),* ) -> $ret:ty = $slot:literal; )*
    ) => {
        /// Server-side interface (generated by `remote_interface!`).
        pub trait $api: Send + Sync {
            $(
                /// Remote method (generated by `remote_interface!`).
                fn $method(&self, $($arg: $argty),*) -> Result<$ret, String>;
            )*
        }

        /// Skeleton adapting an implementation of the interface to
        /// `ohpc_orb::RemoteObject` (generated by `remote_interface!`).
        pub struct $skeleton<T: $api>(pub T);

        impl<T: $api> $crate::skeleton::RemoteObject for $skeleton<T> {
            fn type_name(&self) -> &str {
                $type_name
            }

            fn dispatch(
                &self,
                method: u32,
                args: &mut $crate::__xdr::XdrReader<'_>,
                out: &mut $crate::__xdr::XdrWriter,
            ) -> Result<(), $crate::skeleton::MethodError> {
                match method {
                    $(
                        $slot => {
                            $(
                                let $arg = <$argty as $crate::__xdr::XdrDecode>::decode(args)
                                    .map_err(|e| $crate::skeleton::MethodError::BadArgs(e.to_string()))?;
                            )*
                            let result = self.0.$method($($arg),*)
                                .map_err($crate::skeleton::MethodError::App)?;
                            <$ret as $crate::__xdr::XdrEncode>::encode(&result, out);
                            Ok(())
                        }
                    )*
                    m => Err($crate::skeleton::MethodError::NoSuchMethod(m)),
                }
            }
        }

        /// Typed client stub over a `GlobalPointer` (generated by
        /// `remote_interface!`).
        pub struct $client {
            #[allow(dead_code)]
            gp: $crate::gp::GlobalPointer,
        }

        #[allow(dead_code)]
        impl $client {
            /// Wraps a global pointer. The pointer should reference an object
            #[doc = concat!("implementing the `", $type_name, "` interface.")]
            pub fn new(gp: $crate::gp::GlobalPointer) -> Self {
                Self { gp }
            }

            /// The underlying global pointer (for selection inspection,
            /// rebinding, or capability hand-off).
            pub fn gp(&self) -> &$crate::gp::GlobalPointer {
                &self.gp
            }

            $(
                /// Remote invocation stub (generated by `remote_interface!`).
                pub fn $method(&self, $($arg: $argty),*) -> Result<$ret, $crate::error::OrbError> {
                    #[allow(unused_mut)]
                    let mut w = $crate::__xdr::XdrWriter::reused();
                    $( <$argty as $crate::__xdr::XdrEncode>::encode(&$arg, &mut w); )*
                    // The writer is done with: its buffer is the request
                    // body, not copied, and comes back for the next call.
                    let reply = $crate::skeleton::invoke_reusing(&self.gp, $slot, w)?;
                    $crate::__xdr::decode_from_slice::<$ret>(&reply).map_err($crate::error::OrbError::from)
                }
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_xdr::{XdrDecode, XdrEncode};

    struct Adder;

    impl RemoteObject for Adder {
        fn type_name(&self) -> &str {
            "Adder"
        }
        fn dispatch(
            &self,
            method: u32,
            args: &mut XdrReader<'_>,
            out: &mut XdrWriter,
        ) -> Result<(), MethodError> {
            match method {
                1 => {
                    let a = i32::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?;
                    let b = i32::decode(args).map_err(|e| MethodError::BadArgs(e.to_string()))?;
                    (a + b).encode(out);
                    Ok(())
                }
                2 => Err(MethodError::App("always fails".into())),
                m => Err(MethodError::NoSuchMethod(m)),
            }
        }
    }

    #[test]
    fn manual_skeleton_dispatch() {
        let obj = Adder;
        let mut w = XdrWriter::new();
        2i32.encode(&mut w);
        3i32.encode(&mut w);
        let buf = w.finish();
        let mut args = XdrReader::new(&buf);
        let mut out = XdrWriter::new();
        obj.dispatch(1, &mut args, &mut out).unwrap();
        let sum: i32 = ohpc_xdr::decode_from_slice(&out.finish()).unwrap();
        assert_eq!(sum, 5);
    }

    #[test]
    fn dispatch_error_paths() {
        let obj = Adder;
        let buf = [];
        let mut out = XdrWriter::new();
        assert!(matches!(
            obj.dispatch(1, &mut XdrReader::new(&buf), &mut out),
            Err(MethodError::BadArgs(_))
        ));
        assert_eq!(
            obj.dispatch(2, &mut XdrReader::new(&buf), &mut out),
            Err(MethodError::App("always fails".into()))
        );
        assert_eq!(
            obj.dispatch(99, &mut XdrReader::new(&buf), &mut out),
            Err(MethodError::NoSuchMethod(99))
        );
    }

    // The macro itself is exercised end-to-end in the context/gp integration
    // tests; here we only verify that it expands to compiling code with
    // multiple signatures.
    remote_interface! {
        type_name = "Shapes";
        trait ShapesApi;
        skeleton ShapesSkeleton;
        client ShapesClient;
        fn no_args() -> u32 = 1;
        fn one_arg(x: i32) -> i32 = 2;
        fn many(a: u64, b: String, c: Vec<f64>) -> (u32, String) = 3;
        fn unit_return(n: u32) -> () = 4;
    }

    struct ShapesImpl;
    impl ShapesApi for ShapesImpl {
        fn no_args(&self) -> Result<u32, String> {
            Ok(7)
        }
        fn one_arg(&self, x: i32) -> Result<i32, String> {
            Ok(-x)
        }
        fn many(&self, a: u64, b: String, c: Vec<f64>) -> Result<(u32, String), String> {
            Ok((a as u32 + c.len() as u32, b))
        }
        fn unit_return(&self, _n: u32) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn generated_skeleton_dispatches() {
        let skel = ShapesSkeleton(ShapesImpl);
        assert_eq!(skel.type_name(), "Shapes");

        let mut w = XdrWriter::new();
        5u64.encode(&mut w);
        "tag".encode(&mut w);
        vec![1.0f64, 2.0].encode(&mut w);
        let buf = w.finish();
        let mut out = XdrWriter::new();
        skel.dispatch(3, &mut XdrReader::new(&buf), &mut out).unwrap();
        let (n, s): (u32, String) = ohpc_xdr::decode_from_slice(&out.finish()).unwrap();
        assert_eq!((n, s), (7, "tag".to_string()));
    }

    #[test]
    fn generated_client_type_compiles_and_is_constructible() {
        // The stub needs a GlobalPointer; constructing one requires a pool,
        // which the gp module tests cover. Here we only pin the generated
        // API surface so dead-code lints keep it honest.
        #[allow(clippy::type_complexity)]
        fn _assert_api(c: &ShapesClient) {
            let _ = c.gp();
            let _: fn(&ShapesClient) -> Result<u32, crate::error::OrbError> = ShapesClient::no_args;
            let _: fn(&ShapesClient, i32) -> Result<i32, crate::error::OrbError> =
                ShapesClient::one_arg;
            let _: fn(&ShapesClient, u64, String, Vec<f64>) -> Result<(u32, String), crate::error::OrbError> =
                ShapesClient::many;
            let _: fn(&ShapesClient, u32) -> Result<(), crate::error::OrbError> =
                ShapesClient::unit_return;
        }
        let _ = ShapesClient::new; // constructor exists
    }

    #[test]
    fn generated_skeleton_rejects_unknown_slot() {
        let skel = ShapesSkeleton(ShapesImpl);
        let mut out = XdrWriter::new();
        assert_eq!(
            skel.dispatch(42, &mut XdrReader::new(&[]), &mut out),
            Err(MethodError::NoSuchMethod(42))
        );
    }
}
